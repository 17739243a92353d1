package core

import (
	"errors"
	"fmt"

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
// one could still carry misrouted slots. It is one comparison: every
// rank's pair table must equal, row for row, the one ComputePersistent
// computes for it from the world's own declared pattern (each rank's own
// rows: its destinations and their payload sizes). The whole layout is
// derived from the table, so that holds every frame on both of its ends to
// the pairs whose dimension-ordered route it lies on, at the size their
// origin declares, and every rank to the deliveries addressed to it. That
// the derived layout is what the learning run sends is held on the wire by
// TestLearningFramesSorted and TestCompiledFramesMatchEncode.
//
// A finding names the rank and the first row that differs. The
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
		i, ok := ps[src].findPair(slotKey{src: int32(src), dst: int32(dst)})
		if !ok {
			return 0, false
		}
		return int(ps[src].pairs[i].n), true
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

// comparePersistent reports the first difference between the pair tables
// of two states of one rank on one topology (a, then b, in the message).
func comparePersistent(a, b *Persistent) error {
	me := a.rank
	if me != b.rank || !a.topo.Equal(b.topo) {
		return fmt.Errorf("rank %d on %v vs rank %d on %v", me, a.topo, b.rank, b.topo)
	}
	for i := 0; i < len(a.pairs) || i < len(b.pairs); i++ {
		switch {
		case i == len(b.pairs) || i < len(a.pairs) && a.pairs[i].k.word() < b.pairs[i].k.word():
			e := a.pairs[i]
			return fmt.Errorf("rank %d: pair %d->%d (%d bytes) vs none", me, e.k.src, e.k.dst, e.n)
		case i == len(a.pairs) || a.pairs[i].k != b.pairs[i].k:
			e := b.pairs[i]
			return fmt.Errorf("rank %d: no pair %d->%d vs %d bytes", me, e.k.src, e.k.dst, e.n)
		case a.pairs[i].n != b.pairs[i].n:
			e := a.pairs[i]
			return fmt.Errorf("rank %d: pair %d->%d sized %d vs %d", me, e.k.src, e.k.dst, e.n, b.pairs[i].n)
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
