package core

import (
	"stfw/internal/msg"
	"stfw/internal/runtime"
)

// Per-stage traffic summaries: the schedule IR already states, per rank,
// which frames every stage sends and expects — this file exports that
// knowledge in the transport-facing runtime.StageTraffic form so a
// schedule-aware transport (internal/transport/udpnet) can run
// zero-speculation flow control: it learns exactly when a peer's stage
// inbound set is complete and acknowledges at stage boundaries instead of
// guessing an ack cadence. All four front-ends produce a summary: the
// dynamic and plan-driven schedules know frame counts, the learned pattern
// (Persistent) and the compiled Replay additionally know exact wire bytes.

// Traffic returns the schedule's per-stage traffic summary: one outbound
// entry per send slot and one inbound entry per expected sender, each with
// an exact frame count of 1 (a slot produces a frame even when empty —
// receive counts are deterministic by construction). Byte sizes are 0
// (unknown at this level; see Persistent.Traffic for learned sizes). The
// summary is built once and cached; the returned slice is shared and must
// be treated as read-only.
func (s *StageSchedule) Traffic() []runtime.StageTraffic {
	s.trafficOnce.Do(func() {
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
		s.traffic = out
	})
	return s.traffic
}

// learnedFrameBytes returns the encoded wire size of a learned frame with
// the given slots: the frame header, one submessage header per slot, and
// the learned payload bytes of each slot.
func (p *Persistent) learnedFrameBytes(slots []slotKey) int {
	n := msg.MsgHeaderLen + len(slots)*msg.SubHeaderLen
	for _, k := range slots {
		n += p.sizes[k]
	}
	return n
}

// Traffic returns the learned pattern's per-stage traffic summary — the
// schedule skeleton's frame counts annotated with the exact wire bytes the
// learning run recorded (empty frames cost a bare header). The summary is
// cached across replays and rebuilt after a Patch, whose slot surgery
// changes byte sizes but never the frame skeleton. Read-only for callers.
func (p *Persistent) Traffic() []runtime.StageTraffic {
	if p.traffic != nil {
		return p.traffic
	}
	sched := p.Schedule()
	out := make([]runtime.StageTraffic, len(sched.Stages))
	for d := range sched.Stages {
		st := &sched.Stages[d]
		tr := runtime.StageTraffic{Tag: st.Tag, Dim: st.Dim}
		tr.Sends = make([]runtime.PeerTraffic, len(st.Sends))
		for j, nf := range p.nbrFrames[d] {
			var slots []slotKey
			if nf.f != nil {
				slots = nf.f.slots
			}
			tr.Sends[j] = runtime.PeerTraffic{Peer: nf.to, Frames: 1, Bytes: p.learnedFrameBytes(slots)}
		}
		tr.Recvs = make([]runtime.PeerTraffic, len(p.inFrom[d]))
		for j, from := range p.inFrom[d] {
			tr.Recvs[j] = runtime.PeerTraffic{Peer: from, Frames: 1, Bytes: p.learnedFrameBytes(p.inLayout[d][j])}
		}
		out[d] = tr
	}
	p.traffic = out
	return out
}

// computeTraffic derives the compiled program's traffic summary straight
// from its lowered stages: outbound frame bytes are the frame programs'
// sizes, inbound ones the expected receive sizes. Called by every lowering
// (Compile, PatchCompiled) and by NewDirectReplay.
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
				tr.Recvs[j] = runtime.PeerTraffic{Peer: from, Frames: 1, Bytes: int(st.inSize[j])}
			}
		}
		out[d] = tr
	}
	return out
}
