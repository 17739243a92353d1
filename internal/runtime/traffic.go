package runtime

// Traffic hints: an optional, advisory channel from a schedule-aware engine
// down to the transport. The store-and-forward executor knows, before a
// single byte moves, exactly which frames every stage will carry — stage
// d sends one frame to and expects one from every dimension-d neighbour,
// whatever the pattern. A transport that learns this ahead of time never
// has to speculate about flow-control state: it knows when a peer's
// per-stage inbound set is complete (acknowledge immediately, release the
// sender's credits at the stage boundary) and which peers data will flow
// back to. A hint names frames, not their sizes, so it outlives a
// core.Persistent.Patch, which changes frame contents only.
//
// Hints are strictly optional and advisory: a transport must stay correct
// (and live) without them, and must stay correct when the actual traffic
// deviates from a stale hint; wrappers may drop the hint entirely.

// PeerTraffic is the expected traffic between this rank and one peer within
// one stage, in one direction.
type PeerTraffic struct {
	// Peer is the remote rank.
	Peer int
	// Frames is the exact number of transport frames expected (empty
	// frames included — their arrival is part of the schedule).
	Frames int
}

// StageTraffic summarizes one schedule stage for the transport: the tag its
// frames travel under and the per-peer outbound/inbound frame counts.
type StageTraffic struct {
	// Tag is the transport tag all of the stage's frames carry.
	Tag int
	// Dim is the virtual-topology dimension the stage traverses (0 for the
	// baseline's single stage). Composite transports use it to attribute a stage to
	// the sub-transport that owns the dimension; like everything else in a
	// hint it is advisory and may not be relied on for correctness.
	Dim int
	// Sends lists expected outbound traffic per destination peer.
	Sends []PeerTraffic
	// Recvs lists expected inbound traffic per source peer.
	Recvs []PeerTraffic
}

// TrafficHinter is an optional Comm extension: a transport that implements
// it is told the full per-stage traffic summary of the schedule about to
// execute. Engines call it (through HintTraffic) once per run, before the
// first stage's sends; transports should treat a repeated hint with the
// same backing slice as a no-op so steady-state replays stay allocation
// free. Implementations must tolerate hints that do not match the traffic
// actually observed — hints may be stale or absent, never load-bearing for
// correctness.
type TrafficHinter interface {
	HintTraffic(stages []StageTraffic)
}

// HintTraffic forwards a schedule's traffic summary to the transport when
// it accepts hints, and is a no-op otherwise. A nil or empty summary is
// ignored.
func HintTraffic(c Comm, stages []StageTraffic) {
	if len(stages) == 0 {
		return
	}
	if h, ok := c.(TrafficHinter); ok {
		h.HintTraffic(stages)
	}
}
