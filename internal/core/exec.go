package core

import (
	"fmt"
	"sort"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/vpt"
)

// Delivered is what a rank gets out of an exchange: the original payloads
// destined for it, tagged with their source ranks. The one a learning run
// (NewPersistent) or a one-shot exchange returns is the caller's. The one
// Persistent.Run returns is the Persistent's: the next Run overwrites its
// payload bytes in place, and the first Run after a Patch replaces it, so
// a caller that keeps deliveries across Runs copies them.
type Delivered struct {
	Subs []msg.Submessage
}

// tagBase separates store-and-forward stage tags from other traffic on the
// same communicator.
const tagBase = 0x5747 // "WG"

// StageTag returns the transport tag the exchange uses for stage d;
// instrumentation uses TagStage to attribute frames back to stages.
func StageTag(d int) int { return tagBase + d }

// TagStage inverts StageTag: it returns the stage of a tag and whether the
// tag belongs to the store-and-forward exchange at all (maxStages bounds
// the topology dimension).
func TagStage(tag, maxStages int) (int, bool) {
	d := tag - tagBase
	if d >= 0 && d < maxStages {
		return d, true
	}
	if tag == tagBase-1 {
		return 0, true // the direct-exchange tag maps to a single stage
	}
	return 0, false
}

// censusTagBase offsets the dynamic-discovery census (dynamic.Discover)
// into its own tag range, disjoint from every StageTag and from the direct
// tag, so a census can interleave with payload exchanges on the same
// communicator without cross-matching frames. The offset leaves room for
// any realistic dimension count (StageTag grows by 1 per stage and
// topologies cap out near lg2 K stages).
const censusTagBase = tagBase + 0x100

// CensusTag returns the transport tag stage d of the dynamic-discovery
// census travels under. TagStage deliberately does not map these tags:
// census frames carry announcements, not payload, and stage-scoped
// telemetry should not attribute them to data stages.
func CensusTag(d int) int { return censusTagBase + d }

// AppTagSpan returns the half-open tag range [lo, hi) every exchange path
// draws from for a world of at most maxStages stages: the direct-baseline
// tag, the stage tags, and the census tags. Transports that reserve tags
// for their own control traffic (runtime.TagReserver) must reserve outside
// this span; composite transports check the two never overlap.
func AppTagSpan(maxStages int) (lo, hi int) {
	return tagBase - 1, censusTagBase + maxStages
}

// Exchange runs Algorithm 1 on one rank: it injects this rank's outgoing
// payloads into the forward buffers, executes the n communication stages of
// the topology (talking only to dimension-d neighbors in stage d), stores
// and forwards submessages of other ranks, and returns the submessages
// destined for this rank.
//
// payloads maps destination rank to the data this rank wants delivered
// there. A frame is sent to every dimension-d neighbor each stage (possibly
// empty) so receive counts are deterministic; the paper's message-count
// metrics ignore empty frames, and so does the Plan this call is validated
// against.
//
// Exchange is the learning run with the record dropped: there is one
// routing run (NewPersistent), and a one-shot exchange is that run
// without the record or the replay. Exchange is collective: every rank of
// the communicator must call it with the same topology.
func Exchange(c runtime.Comm, t *vpt.Topology, payloads map[int][]byte) (*Delivered, error) {
	return route(c, t, payloads, nil)
}

// scatterFrame routes one received frame's submessages: deliveries append
// to out, everything else goes to the forward buffer of its next stage.
func scatterFrame(t *vpt.Topology, me, d int, fb *msg.ForwardBuffers, out *Delivered, subs []msg.Submessage) error {
	for _, sub := range subs {
		if sub.Dst == me {
			out.Subs = append(out.Subs, sub)
			continue
		}
		c2 := t.NextDiff(me, sub.Dst, d)
		if c2 < 0 {
			// The routing invariant guarantees digits 0..d of the holder
			// match the destination after stage d; a submessage that
			// matches in all digits but is not for us indicates a
			// corrupted frame.
			return fmt.Errorf("core: rank %d stage %d: submessage for %d cannot be forwarded",
				me, d, sub.Dst)
		}
		fb.Put(c2, t.Digit(sub.Dst, c2), sub)
	}
	return nil
}

// DirectExchange is the baseline scheme BL: every rank sends its payloads
// straight to their destinations and receives from the ranks listed in
// recvFrom (which the application knows, e.g. from its data distribution;
// use SendSets.RecvSets or CountExchange to obtain it). It is the stage
// machine's single-stage front-end: one frame per destination, one
// expected frame per source.
func DirectExchange(c runtime.Comm, payloads map[int][]byte, recvFrom []int) (*Delivered, error) {
	me := c.Rank()
	out := &Delivered{}
	dests := make([]int, 0, len(payloads))
	for dst := range payloads {
		if dst < 0 || dst >= c.Size() {
			return nil, fmt.Errorf("core: rank %d: destination %d out of range", me, dst)
		}
		if dst == me {
			out.Subs = append(out.Subs, msg.Submessage{Src: me, Dst: me, Data: payloads[me]})
			continue
		}
		dests = append(dests, dst)
	}
	sort.Ints(dests) // deterministic send order (the schedule is ordered data, not map iteration)

	// One submessage per outbound frame, backed by a single array so the
	// send worker can alias slices of it until the exchange ends.
	subArr := make([]msg.Submessage, 0, len(dests))
	sched := buildDirectSchedule(me, dests, recvFrom)
	if err := validateSchedule(sched, me, c.Size()); err != nil {
		return nil, err
	}
	sm := &stageMachine{
		sched: sched,
		outSubs: func(_, _ int, slot SendSlot) ([]msg.Submessage, error) {
			subArr = append(subArr, msg.Submessage{Src: me, Dst: slot.To, Data: payloads[slot.To]})
			return subArr[len(subArr)-1:], nil
		},
		onFrame: func(_, from int, subs []msg.Submessage) error {
			if len(subs) != 1 || subs[0].Src != from || subs[0].Dst != me {
				return fmt.Errorf("core: rank %d: malformed direct frame from %d", me, from)
			}
			out.Subs = append(out.Subs, subs[0])
			return nil
		},
		finish: func() error {
			msg.SortSubs(out.Subs)
			msg.CompactSubs(out.Subs)
			return nil
		},
	}
	if err := sm.run(c, me); err != nil {
		return nil, err
	}
	return out, nil
}

// CountExchange lets each rank learn which ranks will send to it without
// global knowledge, using a hypercube-style regularized exchange of count
// vectors (the same trick the STFW scheme itself uses for data). It returns
// the sorted list of source ranks that have this rank in their send set.
// K must match the communicator size; the call is collective.
func CountExchange(c runtime.Comm, dests []int) ([]int, error) {
	K := c.Size()
	me := c.Rank()
	t, err := bestEffortTopology(K)
	if err != nil {
		return nil, err
	}
	payloads := make(map[int][]byte, len(dests))
	for _, dst := range dests {
		payloads[dst] = []byte{} // empty announcement: "I will send to you"
	}
	got, err := Exchange(c, t, payloads)
	if err != nil {
		return nil, err
	}
	srcs := make([]int, 0, len(got.Subs))
	for _, sub := range got.Subs {
		if sub.Src != me {
			srcs = append(srcs, sub.Src)
		}
	}
	return srcs, nil
}

// bestEffortTopology returns the highest-dimensional balanced VPT for K
// when K is a power of two, and the direct topology otherwise.
func bestEffortTopology(K int) (*vpt.Topology, error) {
	if K >= 2 && K&(K-1) == 0 {
		return vpt.NewBalanced(K, vpt.MaxDim(K))
	}
	return vpt.Direct(K)
}
