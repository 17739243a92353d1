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

// stageSkeleton returns rank me's store-and-forward stage skeleton on t,
// with stage d under tag tag0+d: nbrs lists every neighbour, stage by
// stage, each stage's dimension-d neighbours in digit order, which is
// ascending rank order; stage d of hint sends one frame to and expects one
// from each of them, whatever the pattern, and its Recvs are nbrs' window
// for the stage. So the skeleton depends on the topology, the rank and the
// tags alone. Each stage's Sends and Recvs share one window of one
// PeerTraffic array, which transports only read. route builds both per
// call and offers the hint before its first send; a Replay lowered from a
// layout keeps its hint across re-lowerings (lower), so a transport that
// skips a hint whose backing slice it has seen (udpnet, hier) does so
// exactly.
func stageSkeleton(t *vpt.Topology, me, tag0 int) (nbrs []int, hint []runtime.StageTraffic) {
	nbrs = make([]int, 0, t.NumNeighbors())
	peers := make([]runtime.PeerTraffic, t.NumNeighbors())
	hint = make([]runtime.StageTraffic, t.N())
	for d := range hint {
		lo := len(nbrs)
		nbrs = t.Neighbors(nbrs, me, d)
		for j, nb := range nbrs[lo:] {
			peers[lo+j] = runtime.PeerTraffic{Peer: nb, Frames: 1}
		}
		pt := peers[lo:len(nbrs):len(nbrs)]
		hint[d] = runtime.StageTraffic{Tag: tag0 + d, Dim: d, Sends: pt, Recvs: pt}
	}
	return nbrs, hint
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
