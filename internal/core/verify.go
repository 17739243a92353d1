package core

import (
	"errors"
	"fmt"
	"slices"

	"stfw/internal/vpt"
)

// This file is the whole-world schedule verifier: where validateSchedule
// (schedule.go) sanity-checks one rank's program in isolation, VerifyWorld
// cross-checks the programs of all K ranks against each other — the
// property the exchange loops' liveness actually depends on. A world of
// individually-valid schedules can still deadlock or drop payload if rank a
// sends a frame rank b never expects, or rank b waits for a frame nobody
// sends. Tests run it over every schedule front-end (dynamic, learned,
// direct), and `stfwbench -verify` sweeps it over conformance
// topologies from the command line.

// maxVerifyErrors bounds how many findings a verification reports before
// summarizing the rest; a structurally broken world would otherwise produce
// O(K^2) repetitive errors.
const maxVerifyErrors = 8

// verifyErrs accumulates findings up to the cap.
type verifyErrs struct {
	errs       []error
	suppressed int
}

func (v *verifyErrs) addf(format string, args ...any) {
	if len(v.errs) >= maxVerifyErrors {
		v.suppressed++
		return
	}
	v.errs = append(v.errs, fmt.Errorf(format, args...))
}

func (v *verifyErrs) join() error {
	if v.suppressed > 0 {
		v.errs = append(v.errs, fmt.Errorf("core: verify: %d further findings suppressed", v.suppressed))
	}
	return errors.Join(v.errs...)
}

// VerifyWorld cross-checks the per-rank schedules of a K-rank world
// (scheds[r] is rank r's program). It verifies that:
//
//   - every rank has the same stage count and per-stage tag (the stage
//     machines advance in lockstep, keyed by tag);
//   - every send and receive slot names a valid, non-self rank;
//   - no stage has duplicate send destinations or duplicate expected
//     senders on one rank (each neighbor pair exchanges exactly one frame
//     per stage), and every expected sender set is listed in ascending
//     rank order (a receiver finds a sender by binary search);
//   - sends and receives match pairwise: rank a lists b as a stage-d
//     destination if and only if rank b lists a as a stage-d expected
//     sender. An unmatched send is a frame the receiver never drains; an
//     unmatched expected sender (an orphan) blocks the receiver forever.
//
// A nil error means the world's programs are mutually consistent; they run
// without unmatched traffic in either direction.
func VerifyWorld(scheds []*StageSchedule) error {
	var v verifyErrs
	K := len(scheds)
	if K == 0 {
		return errors.New("core: verify: empty world")
	}
	for r, s := range scheds {
		if s == nil {
			v.addf("core: verify: rank %d has no schedule", r)
		}
	}
	if len(v.errs) > 0 {
		return v.join()
	}

	// Lockstep structure: stage counts, tags, and dimensions must agree
	// across ranks. The dimension is routing metadata consumed below the
	// schedule layer (composite transports pick a sub-transport by it), so a
	// per-rank disagreement would silently split one stage's frames across
	// transports.
	ref := scheds[0]
	for r, s := range scheds {
		if len(s.Stages) != len(ref.Stages) {
			v.addf("core: verify: rank %d has %d stages, rank 0 has %d", r, len(s.Stages), len(ref.Stages))
			continue
		}
		for d := range s.Stages {
			if s.Stages[d].Tag != ref.Stages[d].Tag {
				v.addf("core: verify: stage %d: rank %d uses tag %#x, rank 0 uses %#x", d, r, s.Stages[d].Tag, ref.Stages[d].Tag)
			}
			if dim := s.Stages[d].Dim; dim < 0 || dim >= len(s.Stages) {
				v.addf("core: verify: stage %d: rank %d declares dimension %d, outside [0,%d)", d, r, dim, len(s.Stages))
			} else if dim != ref.Stages[d].Dim {
				v.addf("core: verify: stage %d: rank %d routes dimension %d, rank 0 routes %d", d, r, dim, ref.Stages[d].Dim)
			}
		}
	}
	if len(v.errs) > 0 {
		return v.join()
	}

	// Per-rank slot validity and per-stage slot uniqueness.
	for r, s := range scheds {
		if err := validateSchedule(s, r, K); err != nil {
			v.addf("core: verify: rank %d: %v", r, err)
		}
	}
	if len(v.errs) > 0 {
		return v.join()
	}

	// Pairwise matching per stage.
	for d := range ref.Stages {
		type pair struct{ from, to int }
		sends := make(map[pair]bool)
		recvs := make(map[pair]bool)
		for r, s := range scheds {
			for _, slot := range s.Stages[d].Sends {
				sends[pair{r, slot.To}] = true
			}
			for _, from := range s.Stages[d].RecvFrom {
				recvs[pair{from, r}] = true
			}
		}
		for p := range sends {
			if !recvs[p] {
				v.addf("core: verify: stage %d: rank %d sends to %d, which does not expect a frame from it", d, p.from, p.to)
			}
		}
		for p := range recvs {
			if !sends[p] {
				v.addf("core: verify: stage %d: rank %d expects a frame from %d, which never sends one (orphan sender)", d, p.to, p.from)
			}
		}
	}
	return v.join()
}

// VerifyWorldAgainstPlan runs VerifyWorld and then checks submessage
// conservation against the plan: per stage, every annotated send slot's
// Reserve must equal the Subs of the plan's (From, To) frame, every
// nonempty plan frame must be carried by exactly that slot, and no slot may
// reserve capacity for a frame the plan does not contain. Together with the
// plan's own construction invariant (every submessage routed exactly once)
// this pins the schedules to the plan's exact traffic.
func VerifyWorldAgainstPlan(scheds []*StageSchedule, p *Plan) error {
	if err := VerifyWorld(scheds); err != nil {
		return err
	}
	var v verifyErrs
	if len(scheds[0].Stages) != len(p.Stages) {
		return fmt.Errorf("core: verify: schedules have %d stages, plan has %d", len(scheds[0].Stages), len(p.Stages))
	}
	type pair struct{ from, to int }
	for d := range p.Stages {
		want := make(map[pair]int, len(p.Stages[d]))
		for _, f := range p.Stages[d] {
			if f.Subs > 0 {
				want[pair{f.From, f.To}] = f.Subs
			}
		}
		covered := make(map[pair]bool, len(want))
		for r, s := range scheds {
			for _, slot := range s.Stages[d].Sends {
				key := pair{r, slot.To}
				subs, inPlan := want[key]
				switch {
				case slot.Reserve == 0 && inPlan:
					v.addf("core: verify: stage %d: plan routes %d submessages %d->%d but the schedule slot reserves none", d, subs, r, slot.To)
				case slot.Reserve != 0 && !inPlan:
					v.addf("core: verify: stage %d: schedule reserves %d submessages %d->%d, a frame the plan does not contain", d, slot.Reserve, r, slot.To)
				case slot.Reserve != subs:
					v.addf("core: verify: stage %d: frame %d->%d reserves %d submessages, plan says %d", d, r, slot.To, slot.Reserve, subs)
				default:
					covered[key] = true
				}
			}
		}
		for key, subs := range want {
			if !covered[key] {
				v.addf("core: verify: stage %d: plan frame %d->%d (%d submessages) has no schedule slot", d, key.from, key.to, subs)
			}
		}
	}
	return v.join()
}

// LearnedWorldSchedules returns every rank's learned (or patched) schedule
// — the programs Persistent.Run executes — for gating a whole learned
// world through VerifyWorld. Typical use after a patch round: run
// VerifyWorld over these plus VerifyLearnedWorld over the Persistents
// themselves.
func LearnedWorldSchedules(ps []*Persistent) []*StageSchedule {
	scheds := make([]*StageSchedule, len(ps))
	for r, p := range ps {
		if p != nil {
			scheds[r] = p.Schedule()
		}
	}
	return scheds
}

// VerifyLearnedWorld cross-checks a world of learned (or patched)
// Persistents on the payload plane, which the schedule-level VerifyWorld
// cannot see: a learned schedule sends a frame to every neighbor whether or
// not it carries payload, so churn never changes the skeleton and a clean
// one could still carry misrouted slots. It is one comparison: every rank
// must equal, slot for slot, what ComputePersistent builds for it from the
// world's own declared pattern (each rank's destinations and their payload
// sizes). That holds:
//
//   - wire symmetry: every frame's slot sequence equals its receiver's
//     inbound layout, and both ends record the size its origin declares;
//   - route completeness: each declared payload occupies exactly the frames
//     on its dimension-ordered route, and no frame carries another slot;
//   - frame order: every frame lists its slots in ascending (src, dst) order;
//   - delivery: each rank delivers exactly the declared pairs destined for
//     it, in sorted (src, dst) order.
//
// A finding names the rank and, for a frame, the stage. The
// dynamic-sparsity property suite runs it after every mutation round.
func VerifyLearnedWorld(ps []*Persistent) error {
	var v verifyErrs
	K := len(ps)
	if K == 0 {
		return errors.New("core: verify: empty world")
	}
	for r, p := range ps {
		if p == nil {
			v.addf("core: verify: rank %d has no persistent", r)
		} else if p.rank != r {
			v.addf("core: verify: slot %d holds rank %d's persistent", r, p.rank)
		} else if !p.topo.Equal(ps[0].topo) {
			v.addf("core: verify: rank %d learned on topology %v, rank 0 on %v", r, p.topo, ps[0].topo)
		}
	}
	if len(v.errs) > 0 {
		return v.join()
	}
	if ps[0].topo.Size() != K {
		v.addf("core: verify: %d persistents for a %d-rank topology", K, ps[0].topo.Size())
		return v.join()
	}
	declared := func(src, dst int) (int, bool) {
		if _, ok := ps[src].dests[dst]; !ok {
			return 0, false
		}
		return ps[src].sizes[slotKey{src: int32(src), dst: int32(dst)}], true
	}
	for r, p := range ps {
		want, err := ComputePersistent(p.topo, r, declared)
		if err != nil {
			v.addf("core: verify: rank %d: %v", r, err)
		} else if err := comparePersistent(p, want); err != nil {
			v.addf("core: verify: %v (learned vs computed)", err)
		}
	}
	return v.join()
}

// comparePersistent reports the first difference between two states of one
// rank on one topology (a, then b, in each message): every frame's slots in
// order with their sizes, stage by stage, then deliveries, destinations and
// sizes.
func comparePersistent(a, b *Persistent) error {
	me := a.rank
	if me != b.rank || !a.topo.Equal(b.topo) {
		return fmt.Errorf("rank %d on %v vs rank %d on %v", me, a.topo, b.rank, b.topo)
	}
	for d := range a.nbrFrames {
		for j, af := range a.nbrFrames[d] {
			// One topology gives both the same neighbors in the same order.
			if err := compareSlots(a, b, af.f.list(), b.nbrFrames[d][j].f.list()); err != nil {
				return fmt.Errorf("rank %d stage %d frame to %d: %w", me, d, af.to, err)
			}
			in := a.inLayout[d][j]
			if err := compareSlots(a, b, in, b.inLayout[d][j]); err != nil {
				return fmt.Errorf("rank %d stage %d frame from %d: %w", me, d, af.to, err)
			}
			for _, k := range in {
				if _, ok := slices.BinarySearchFunc(a.deliver, k, cmpSlot); k.dst == int32(me) && !ok {
					return fmt.Errorf("rank %d stage %d frame from %d: slot %d->%d is never delivered", me, d, af.to, k.src, k.dst)
				}
			}
		}
	}
	if !slices.Equal(a.deliver, b.deliver) {
		return fmt.Errorf("rank %d: deliveries %v vs %v", me, a.deliver, b.deliver)
	}
	if !slices.Equal(a.destList, b.destList) {
		return fmt.Errorf("rank %d: destinations %v vs %v", me, a.destList, b.destList)
	}
	if len(a.sizes) != len(b.sizes) {
		return fmt.Errorf("rank %d: %d recorded sizes vs %d", me, len(a.sizes), len(b.sizes))
	}
	for k, n := range a.sizes {
		if bn, ok := b.sizes[k]; !ok || bn != n {
			return fmt.Errorf("rank %d: size of %d->%d is %d vs %d", me, k.src, k.dst, n, bn)
		}
	}
	return nil
}

// compareSlots holds one frame's slot lists, as a and b record them, to the
// same slots in the same order with the same sizes.
func compareSlots(a, b *Persistent, as, bs []slotKey) error {
	if !slices.Equal(as, bs) {
		return fmt.Errorf("slots %v vs %v", as, bs)
	}
	for _, k := range as {
		if a.sizes[k] != b.sizes[k] {
			return fmt.Errorf("slot %d->%d sized %d vs %d", k.src, k.dst, a.sizes[k], b.sizes[k])
		}
	}
	return nil
}

// WorldSchedules returns the dynamic front-end's schedule for every rank of
// the topology — the programs the learning run, and so Exchange, executes.
func WorldSchedules(t *vpt.Topology) []*StageSchedule {
	scheds := make([]*StageSchedule, t.Size())
	for r := range scheds {
		scheds[r] = buildTopologySchedule(t, r)
	}
	return scheds
}

// DirectWorldSchedules returns the direct-baseline schedule for every rank
// implied by the send sets: rank r sends one frame to each destination in
// its (normalized) send set and expects one frame from each source in the
// transpose — the single stage NewDirectReplay compiles for the same
// pattern. It is the only place the direct schedule is built as IR.
func DirectWorldSchedules(s *SendSets) []*StageSchedule {
	recv := s.RecvSets()
	scheds := make([]*StageSchedule, s.K)
	for r := range scheds {
		dests := make([]int, 0, len(s.Sets[r]))
		for _, pr := range s.Sets[r] {
			dests = append(dests, pr.Dst)
		}
		from := make([]int, 0, len(recv[r]))
		for _, pr := range recv[r] {
			from = append(from, pr.Dst)
		}
		scheds[r] = buildDirectSchedule(r, dests, from)
	}
	return scheds
}
