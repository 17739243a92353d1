package core

import "stfw/internal/runtime"

// Per-stage traffic summaries: a compiled program states, per rank, which
// frames every stage sends and expects and their exact wire bytes; this
// file exports that knowledge in the transport-facing runtime.StageTraffic
// form so a schedule-aware transport (internal/transport/udpnet) can run
// zero-speculation flow control: it learns exactly when a peer's stage
// inbound set is complete and acknowledges at stage boundaries instead of
// guessing an ack cadence. The routing run (route) hints the same
// skeleton, one frame each way per dimension neighbour, without sizes.

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
