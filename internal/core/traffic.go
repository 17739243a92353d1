package core

import "stfw/internal/runtime"

// Per-stage traffic summaries: the schedule IR already states, per rank,
// which frames every stage sends and expects — this file exports that
// knowledge in the transport-facing runtime.StageTraffic form so a
// schedule-aware transport (internal/transport/udpnet) can run
// zero-speculation flow control: it learns exactly when a peer's stage
// inbound set is complete and acknowledges at stage boundaries instead of
// guessing an ack cadence. Every exchange path produces a summary: the
// dynamic and direct schedules know frame counts, and the Replay that
// every learned pattern replays through (Persistent.Run and Compile)
// additionally knows exact wire bytes.

// Traffic returns the schedule's per-stage traffic summary: one outbound
// entry per send slot and one inbound entry per expected sender, each with
// an exact frame count of 1 (a slot produces a frame even when empty —
// receive counts are deterministic by construction). Byte sizes are 0
// (unknown at this level; a lowered Replay knows the learned sizes). The
// summary is built on every call: each schedule route runs is built for
// that run.
func (s *StageSchedule) Traffic() []runtime.StageTraffic {
	out := make([]runtime.StageTraffic, len(s.Stages))
	for d := range s.Stages {
		st := &s.Stages[d]
		tr := runtime.StageTraffic{Tag: st.Tag, Dim: st.Dim}
		if len(st.Sends) > 0 {
			tr.Sends = make([]runtime.PeerTraffic, len(st.Sends))
			for j, sl := range st.Sends {
				tr.Sends[j] = runtime.PeerTraffic{Peer: sl.To, Frames: 1}
			}
		}
		if len(st.RecvFrom) > 0 {
			tr.Recvs = make([]runtime.PeerTraffic, len(st.RecvFrom))
			for j, f := range st.RecvFrom {
				tr.Recvs[j] = runtime.PeerTraffic{Peer: f, Frames: 1}
			}
		}
		out[d] = tr
	}
	return out
}

// computeTraffic derives the compiled program's traffic summary straight
// from its lowered stages: outbound frame bytes are the frame programs'
// sizes, inbound ones the expected receive sizes. Called by every lowering
// (Persistent.Run, Compile, PatchCompiled) and by NewDirectReplay.
func (r *Replay) computeTraffic() []runtime.StageTraffic {
	out := make([]runtime.StageTraffic, len(r.stages))
	for d := range r.stages {
		st := &r.stages[d]
		tr := runtime.StageTraffic{Tag: st.tag, Dim: st.dim}
		if len(st.frames) > 0 {
			tr.Sends = make([]runtime.PeerTraffic, len(st.frames))
			for j := range st.frames {
				f := &st.frames[j]
				tr.Sends[j] = runtime.PeerTraffic{Peer: f.to, Frames: 1, Bytes: int(f.size)}
			}
		}
		if len(st.recvFrom) > 0 {
			tr.Recvs = make([]runtime.PeerTraffic, len(st.recvFrom))
			for j, from := range st.recvFrom {
				tr.Recvs[j] = runtime.PeerTraffic{Peer: from, Frames: 1, Bytes: int(st.ins[j].size)}
			}
		}
		out[d] = tr
	}
	return out
}
