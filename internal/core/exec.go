package core

import (
	"fmt"
	"sort"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/vpt"
)

// Delivered is what a rank gets out of an exchange: the original payloads
// destined for it, tagged with their source ranks.
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

// ExchangeOpt configures an Exchange or DirectExchange call. All ranks of a
// collective call must pass the same options.
type ExchangeOpt func(*exchangeOptions)

type exchangeOptions struct {
	plan  *Plan
	probe func(stage, residentPayloadBytes int)
	tele  *telemetry.Rank
}

// WithPlan switches Exchange onto the plan-driven schedule front-end: the
// per-rank StageSchedule is derived once from the static plan's route
// entries (and cached inside the Plan), and its exact per-frame occupancy
// pre-sizes the rank's forward buffers, so repeated planned exchanges skip
// both per-call schedule construction and append growth. The plan must have
// been built for the topology being executed; a plan for a different
// topology is ignored.
func WithPlan(p *Plan) ExchangeOpt { return func(o *exchangeOptions) { o.plan = p } }

// WithStageProbe installs an observer invoked once per completed stage with
// the payload bytes resident at this rank at the stage boundary: forward
// buffer contents plus the payloads the stage delivered. The value is
// directly comparable to 8*Plan.MaxBufferWords, which tests use to check
// that a live execution never exceeds the static occupancy bound.
func WithStageProbe(f func(stage, residentPayloadBytes int)) ExchangeOpt {
	return func(o *exchangeOptions) { o.probe = f }
}

// WithTelemetry attaches this rank's live telemetry collector: the engine
// counts the submessages it stores and forwards and, when the collector
// samples the exchange (telemetry.Rank.Sample), records one stage-scoped
// span per communication stage. Frame-level send/recv counters come
// from wrapping the communicator (telemetry.Registry.WrapComm), which works
// without the engine's cooperation; this option adds the parts only the
// engine can see. A nil collector is a no-op.
func WithTelemetry(t *telemetry.Rank) ExchangeOpt {
	return func(o *exchangeOptions) { o.tele = t }
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
// Exchange is the dynamic front-end of the stage machine: it builds a
// StageSchedule from the topology alone (or takes the plan-derived one via
// WithPlan) and routes each submessage as frames land: a worker goroutine
// issues the stage's sends from pooled frame buffers while the main loop
// receives frames in arrival order (runtime.RecvAnyOf), scattering each as
// it lands.
//
// Exchange is collective: every rank of the communicator must call it with
// the same topology and options.
func Exchange(c runtime.Comm, t *vpt.Topology, payloads map[int][]byte, opts ...ExchangeOpt) (*Delivered, error) {
	var opt exchangeOptions
	for _, o := range opts {
		o(&opt)
	}
	me := c.Rank()
	if t.Size() != c.Size() {
		return nil, fmt.Errorf("core: topology size %d != communicator size %d", t.Size(), c.Size())
	}
	fb := msg.NewForwardBuffers(t.Dims())
	var sched *StageSchedule
	if opt.plan != nil && opt.plan.Topo.Equal(t) {
		sched = opt.plan.scheduleFor(me)
		for d := range sched.Stages {
			for _, s := range sched.Stages[d].Sends {
				if s.Reserve > 0 {
					fb.Reserve(d, t.Digit(s.To, d), s.Reserve)
				}
			}
		}
	} else {
		sched = buildTopologySchedule(t, me)
	}
	out := &Delivered{}

	// Lines 4-6: scatter my send list into the forward buffers, keyed by
	// the first differing digit.
	for dst, data := range payloads {
		if dst < 0 || dst >= t.Size() {
			return nil, fmt.Errorf("core: rank %d: destination %d out of range", me, dst)
		}
		if dst == me {
			out.Subs = append(out.Subs, msg.Submessage{Src: me, Dst: me, Data: data})
			continue
		}
		d := t.FirstDiff(me, dst)
		fb.Put(d, t.Digit(dst, d), msg.Submessage{Src: me, Dst: dst, Data: data})
	}

	sm := &stageMachine{
		sched:   sched,
		tele:    opt.tele,
		traffic: sched.Traffic(),
		// Lines 9-12: each outbound frame drains the forward buffer keyed by
		// the destination's dimension-d digit.
		outSubs: func(d, _ int, slot SendSlot) ([]msg.Submessage, error) {
			return fb.Take(d, t.Digit(slot.To, d)), nil
		},
		// Lines 13-17: scatter received submessages into later-stage buffers
		// or deliver them.
		onFrame: func(d, _ int, subs []msg.Submessage) (int, error) {
			return scatterFrame(t, me, d, fb, out, subs, opt.tele)
		},
		finish: func() error {
			if left := fb.SubCount(); left != 0 {
				return fmt.Errorf("core: rank %d: %d submessages left undelivered", me, left)
			}
			msg.SortSubs(out.Subs)
			msg.CompactSubs(out.Subs)
			return nil
		},
	}
	if opt.probe != nil {
		sm.onStage = func(d, delivered int) { opt.probe(d, fb.PayloadBytes()+delivered) }
	}
	if err := sm.run(c, me); err != nil {
		return nil, err
	}
	return out, nil
}

// scatterFrame routes one received frame's submessages: deliveries append
// to out (returning their payload byte count), everything else goes to the
// forward buffer of its next stage. Forwarded submessages are counted into
// the stage's telemetry (one batched update per frame).
func scatterFrame(t *vpt.Topology, me, d int, fb *msg.ForwardBuffers, out *Delivered, subs []msg.Submessage, tele *telemetry.Rank) (int, error) {
	delivered := 0
	fwdSubs, fwdBytes := 0, 0
	for _, sub := range subs {
		if sub.Dst == me {
			out.Subs = append(out.Subs, sub)
			delivered += len(sub.Data)
			continue
		}
		c2 := t.NextDiff(me, sub.Dst, d)
		if c2 < 0 {
			// The routing invariant guarantees digits 0..d of the holder
			// match the destination after stage d; a submessage that
			// matches in all digits but is not for us indicates a
			// corrupted frame.
			return delivered, fmt.Errorf("core: rank %d stage %d: submessage for %d cannot be forwarded",
				me, d, sub.Dst)
		}
		fb.Put(c2, t.Digit(sub.Dst, c2), sub)
		fwdSubs++
		fwdBytes += len(sub.Data)
	}
	if fwdSubs > 0 {
		tele.CountForward(d, fwdSubs, fwdBytes)
	}
	return delivered, nil
}

// DirectExchange is the baseline scheme BL: every rank sends its payloads
// straight to their destinations and receives from the ranks listed in
// recvFrom (which the application knows, e.g. from its data distribution;
// use SendSets.RecvSets or CountExchange to obtain it). It is the stage
// machine's single-stage front-end: one frame per destination, one
// expected frame per source.
func DirectExchange(c runtime.Comm, payloads map[int][]byte, recvFrom []int, opts ...ExchangeOpt) (*Delivered, error) {
	var opt exchangeOptions
	for _, o := range opts {
		o(&opt)
	}
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
		sched:   sched,
		tele:    opt.tele,
		traffic: sched.Traffic(),
		outSubs: func(_, _ int, slot SendSlot) ([]msg.Submessage, error) {
			subArr = append(subArr, msg.Submessage{Src: me, Dst: slot.To, Data: payloads[slot.To]})
			return subArr[len(subArr)-1:], nil
		},
		onFrame: func(_, from int, subs []msg.Submessage) (int, error) {
			if len(subs) != 1 || subs[0].Src != from || subs[0].Dst != me {
				return 0, fmt.Errorf("core: rank %d: malformed direct frame from %d", me, from)
			}
			out.Subs = append(out.Subs, subs[0])
			return len(subs[0].Data), nil
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
