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
// property the stage machine's liveness actually depends on. A world of
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
//     rank order (the stage machine finds a sender by binary search);
//   - sends and receives match pairwise: rank a lists b as a stage-d
//     destination if and only if rank b lists a as a stage-d expected
//     sender. An unmatched send is a frame the receiver never drains; an
//     unmatched expected sender (an orphan) blocks the receiver forever.
//
// A nil error means the world's programs are mutually consistent; the stage
// machine can execute them without unmatched traffic in either direction.
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
// Persistents far more deeply than the schedule-level VerifyWorld can: a
// learned schedule sends a frame to every neighbor whether or not it
// carries payload, so pattern churn never changes the schedule skeleton
// and a structurally clean world could still carry misrouted slots. This
// verifier checks the payload plane itself:
//
//   - wire symmetry: the exact slot sequence of every frame a rank sends
//     equals the receiving rank's recorded inbound layout, and both ends
//     record the same payload size per slot;
//   - route completeness: re-deriving every (src, dst) payload's
//     dimension-ordered route from the world's own declared destination
//     sets, each pair occupies exactly the frames on its route — and no
//     frame carries a slot that no declared payload justifies;
//   - delivery: each rank's delivery list is exactly the declared pairs
//     destined for it, in sorted (src, dst) order.
//
// Every patched world should pass this; the dynamic-sparsity property
// suite runs it after every mutation round.
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
	t := ps[0].topo

	// Wire symmetry: sender slot sequences versus receiver inbound layouts.
	for r, p := range ps {
		for d := range p.nbrFrames {
			for _, nf := range p.nbrFrames[d] {
				var sent []slotKey
				if nf.f != nil {
					sent = nf.f.slots
				}
				got, ok := ps[nf.to].learnedInSlots(d, r)
				if !ok {
					v.addf("core: verify: stage %d: rank %d sends to %d, which has no inbound layout for it", d, r, nf.to)
					continue
				}
				if len(sent) != len(got) {
					v.addf("core: verify: stage %d: frame %d->%d carries %d slots, receiver expects %d",
						d, r, nf.to, len(sent), len(got))
					continue
				}
				for i := range sent {
					if sent[i] != got[i] {
						v.addf("core: verify: stage %d: frame %d->%d slot %d is %d->%d on the sender, %d->%d on the receiver",
							d, r, nf.to, i, sent[i].src, sent[i].dst, got[i].src, got[i].dst)
						break
					}
					if ss, rs := p.sizes[sent[i]], ps[nf.to].sizes[sent[i]]; ss != rs {
						v.addf("core: verify: stage %d: slot %d->%d sized %d on sender %d, %d on receiver %d",
							d, sent[i].src, sent[i].dst, ss, r, rs, nf.to)
						break
					}
				}
			}
		}
	}
	if len(v.errs) > 0 {
		return v.join()
	}

	// Route completeness: replay every declared payload's route and demand
	// exact set equality with the frames the world actually carries.
	type worldFrame struct{ rank, d, to int }
	expectOut := make(map[worldFrame]map[slotKey]bool)
	expectDeliver := make([][]slotKey, K)
	for src, p := range ps {
		for _, dst := range p.destList {
			k := slotKey{src: int32(src), dst: int32(dst)}
			expectDeliver[dst] = append(expectDeliver[dst], k)
			cur := src
			for d := 0; d < t.N(); d++ {
				next := t.RouteNext(cur, dst, d)
				if next == cur {
					continue
				}
				wf := worldFrame{cur, d, next}
				if expectOut[wf] == nil {
					expectOut[wf] = make(map[slotKey]bool)
				}
				expectOut[wf][k] = true
				cur = next
			}
		}
	}
	for r, p := range ps {
		for d := range p.nbrFrames {
			for _, nf := range p.nbrFrames[d] {
				want := expectOut[worldFrame{r, d, nf.to}]
				var slots []slotKey
				if nf.f != nil {
					slots = nf.f.slots
				}
				if len(slots) != len(want) {
					v.addf("core: verify: stage %d: frame %d->%d carries %d slots, the declared pattern routes %d through it",
						d, r, nf.to, len(slots), len(want))
					continue
				}
				for _, k := range slots {
					if !want[k] {
						v.addf("core: verify: stage %d: frame %d->%d carries slot %d->%d, which no declared payload routes through it",
							d, r, nf.to, k.src, k.dst)
					}
				}
			}
		}
		want := expectDeliver[r]
		slices.SortFunc(want, cmpSlot)
		if len(want) != len(p.deliver) {
			v.addf("core: verify: rank %d delivers %d payloads, the declared pattern sends it %d", r, len(p.deliver), len(want))
			continue
		}
		for i := range want {
			if want[i] != p.deliver[i] {
				v.addf("core: verify: rank %d delivery %d is %d->%d, declared pattern says %d->%d",
					r, i, p.deliver[i].src, p.deliver[i].dst, want[i].src, want[i].dst)
				break
			}
		}
	}
	return v.join()
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
// transpose — exactly the programs DirectExchange builds at run time.
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
