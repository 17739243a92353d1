package runtime

// Passthrough is the embeddable base of every Comm decorator. Embedding it
// (instead of a bare Comm) gives the decorator the wrapped endpoint's five
// Comm methods plus the four control-plane seams — SendRetainer,
// TrafficHinter, LinkStatsSource, TagReserver — each answered by the
// package helper over the wrapped Comm, so a decorator is transparent to
// buffer ownership, flow-control hints, wire counters and tag claims
// without naming any of them. A decorator then defines only the methods it
// intercepts.
//
// AnyReceiver is deliberately not forwarded: RecvAnyOf is a data-plane
// receive, and a decorator that intercepts Recv (to count, delay or record
// frames) would be bypassed by a promoted RecvAnyOf. Without the method,
// runtime.RecvAnyOf falls back to the decorator's own fixed-order Recv,
// which is conforming; a decorator that wants arrival order defines
// RecvAnyOf itself, next to its Recv.
type Passthrough struct{ Comm }

// SendRetains implements SendRetainer with the wrapped Comm's answer.
func (p Passthrough) SendRetains() bool { return SendRetains(p.Comm) }

// HintTraffic implements TrafficHinter by handing the hint down.
func (p Passthrough) HintTraffic(stages []StageTraffic) { HintTraffic(p.Comm, stages) }

// LinkStats implements LinkStatsSource with the wrapped Comm's snapshot
// (nil when it keeps none).
func (p Passthrough) LinkStats() []LinkStats { return LinkStatsOf(p.Comm) }

// ReservedTags implements TagReserver with the wrapped Comm's claim; the
// empty range (0, 0) means none.
func (p Passthrough) ReservedTags() (lo, hi int) {
	lo, hi, _ = ReservedTagsOf(p.Comm)
	return lo, hi
}
