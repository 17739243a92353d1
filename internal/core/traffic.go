package core

import (
	"stfw/internal/runtime"
	"stfw/internal/vpt"
)

// Per-stage traffic summaries in the transport-facing runtime.StageTraffic
// form, so a schedule-aware transport (internal/transport/udpnet) can run
// zero-speculation flow control: it learns exactly when a peer's stage
// inbound set is complete and acknowledges at stage boundaries instead of
// guessing an ack cadence. The hint names frames, not their sizes.

// stageHint returns rank me's store-and-forward hint on t: stage d, under
// StageTag(d), sends one frame to and expects one from every dimension-d
// neighbour, whatever the pattern, so the hint depends on the topology and
// the rank alone. route offers it before its first send, and a Replay
// lowered from a layout keeps one across re-lowerings (lower), so a
// transport that skips a hint whose backing slice it has seen (udpnet,
// hier) does so exactly. Each stage's Sends and Recvs share one slice,
// which transports only read.
func stageHint(t *vpt.Topology, me int) []runtime.StageTraffic {
	hint := make([]runtime.StageTraffic, t.N())
	for d := range hint {
		peers := peerTraffic(t.Neighbors(nil, me, d))
		hint[d] = runtime.StageTraffic{Tag: StageTag(d), Dim: d, Sends: peers, Recvs: peers}
	}
	return hint
}

// directHint returns a direct replay's hint: its one stage's frames, one to
// each destination and one from each source.
func directHint(st *rStage) []runtime.StageTraffic {
	var sends []runtime.PeerTraffic
	for j := range st.frames {
		sends = append(sends, runtime.PeerTraffic{Peer: st.frames[j].to, Frames: 1})
	}
	return []runtime.StageTraffic{{Tag: st.tag, Dim: st.dim, Sends: sends, Recvs: peerTraffic(st.recvFrom)}}
}

// peerTraffic lists one frame for each peer, nil for none.
func peerTraffic(peers []int) []runtime.PeerTraffic {
	if len(peers) == 0 {
		return nil
	}
	out := make([]runtime.PeerTraffic, len(peers))
	for j, p := range peers {
		out[j] = runtime.PeerTraffic{Peer: p, Frames: 1}
	}
	return out
}

// hintFits reports whether r's hint names every lowered stage's
// neighbours: lower keeps a hint that fits, and builds one otherwise — on
// a new Replay, or one PatchCompiled is handed from another topology with
// as many stages.
func (r *Replay) hintFits() bool {
	if len(r.traffic) != len(r.stages) {
		return false
	}
	for d := range r.stages {
		st, h := &r.stages[d], &r.traffic[d]
		if len(h.Recvs) != len(st.recvFrom) {
			return false
		}
		for j, nb := range st.recvFrom {
			if h.Recvs[j].Peer != nb {
				return false
			}
		}
	}
	return true
}
