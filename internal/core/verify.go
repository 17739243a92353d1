package core

import (
	"errors"
	"fmt"
	"slices"
)

// This file is the whole-world verifier. A world of individually sound
// programs can still deadlock or drop payload if rank a sends a frame rank
// b never expects, or rank b waits for a frame nobody sends, so
// VerifyReplayWorld cross-checks the compiled programs of all K ranks —
// the Replays every STFW and BL iteration runs — against each other and
// against the plan. VerifyLearnedWorld first holds every learned rank's
// pair table to the computed one, then lowers the world and runs it.
// Tests run both over learned, patched, computed and direct worlds, and
// `stfwbench -verify` sweeps them over the conformance topologies.

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

// VerifyReplayWorld cross-checks the compiled programs of a K-rank world
// (rs[r] is rank r's Replay) against each other and against the plan of
// their traffic. It verifies that:
//
//   - every rank has the plan's stage count and, per stage, rank 0's tag
//     and dimension, the dimension inside [0, stages) (the stage loops
//     advance in lockstep, keyed by tag, and composite transports pick a
//     sub-transport by dimension);
//   - every frame names a valid rank other than its sender, no stage sends
//     one rank two frames, and every stage's expected senders are valid
//     other ranks in strictly ascending order (each neighbour pair
//     exchanges at most one frame per stage);
//   - sends and receives match pairwise: rank a sends b a stage-d frame if
//     and only if b expects one from a, and the frame's byte size and
//     submessage count are the ones b expects. An unmatched send is a
//     frame the receiver never drains; an unmatched expected sender (an
//     orphan) blocks the receiver forever; a size or count mismatch fails
//     the receiver's frame check;
//   - every frame carries the plan's submessage count for its (from, to)
//     pair in its stage (none where the plan has no frame), and every
//     nonempty plan frame is sent.
//
// A finding names the rank and the stage. A nil error means the world runs
// without unmatched traffic in either direction and carries exactly the
// plan's submessages.
func VerifyReplayWorld(rs []*Replay, plan *Plan) error {
	var v verifyErrs
	K := len(rs)
	if K == 0 {
		return errors.New("core: verify: empty world")
	}
	if plan == nil {
		return errors.New("core: verify: no plan")
	}
	for r, rp := range rs {
		switch {
		case rp == nil:
			v.addf("core: verify: rank %d has no replay", r)
		case rp.me != r || rp.size != K:
			v.addf("core: verify: slot %d of %d holds the replay of rank %d of %d", r, K, rp.me, rp.size)
		case len(rp.stages) != len(plan.Stages):
			v.addf("core: verify: rank %d has %d stages, the plan %d", r, len(rp.stages), len(plan.Stages))
		}
	}
	if len(v.errs) > 0 {
		return v.join()
	}

	ref := rs[0].stages
	for r, rp := range rs {
		for d := range rp.stages {
			st := &rp.stages[d]
			if st.tag != ref[d].tag {
				v.addf("core: verify: rank %d stage %d uses tag %#x, rank 0 uses %#x", r, d, st.tag, ref[d].tag)
			}
			if st.dim < 0 || st.dim >= len(ref) {
				v.addf("core: verify: rank %d stage %d declares dimension %d, outside [0,%d)", r, d, st.dim, len(ref))
			} else if st.dim != ref[d].dim {
				v.addf("core: verify: rank %d stage %d routes dimension %d, rank 0 routes %d", r, d, st.dim, ref[d].dim)
			}
			if err := checkStage(st, r, K); err != nil {
				v.addf("core: verify: rank %d stage %d: %v", r, d, err)
			}
		}
	}
	if len(v.errs) > 0 {
		return v.join()
	}

	type link struct{ from, to int }
	for d := range ref {
		expect := make(map[link]*rIn)
		for r, rp := range rs {
			st := &rp.stages[d]
			for j, from := range st.recvFrom {
				expect[link{from, r}] = &st.ins[j]
			}
		}
		subs := make(map[link]int, len(plan.Stages[d]))
		for _, f := range plan.Stages[d] {
			if f.Subs > 0 {
				subs[link{f.From, f.To}] = f.Subs
			}
		}
		for r, rp := range rs {
			for _, f := range rp.stages[d].frames {
				k := link{r, f.to}
				in, ok := expect[k]
				switch {
				case !ok:
					v.addf("core: verify: rank %d stage %d sends to %d, which does not expect a frame from it", r, d, f.to)
				case f.size != in.size || f.nsubs != in.nsubs:
					v.addf("core: verify: rank %d stage %d frame to %d has %d bytes and %d submessages, rank %d expects %d and %d",
						r, d, f.to, f.size, f.nsubs, f.to, in.size, in.nsubs)
				}
				delete(expect, k)
				if want, inPlan := subs[k]; int(f.nsubs) != want {
					if inPlan {
						v.addf("core: verify: rank %d stage %d frame to %d carries %d submessages, the plan %d", r, d, f.to, f.nsubs, want)
					} else {
						v.addf("core: verify: rank %d stage %d frame to %d carries %d submessages, a frame the plan does not contain", r, d, f.to, f.nsubs)
					}
				}
				delete(subs, k)
			}
		}
		// What is left was never sent: walk it in rank order.
		for r, rp := range rs {
			for _, from := range rp.stages[d].recvFrom {
				if _, orphan := expect[link{from, r}]; orphan {
					v.addf("core: verify: rank %d stage %d expects a frame from %d, which never sends one (orphan sender)", r, d, from)
				}
			}
		}
		for _, f := range plan.Stages[d] {
			if n, unsent := subs[link{f.From, f.To}]; unsent {
				v.addf("core: verify: rank %d stage %d sends no frame to %d, the plan's frame of %d submessages", f.From, d, f.To, n)
			}
		}
	}
	return v.join()
}

// checkStage checks one rank's stage on its own: every frame goes to
// another rank of the world, none twice, and the expected senders are
// other ranks of the world in strictly ascending order (none twice). Every lowering sends in ascending order
// too, so only a hand-built stage costs a set.
func checkStage(st *rStage, me, size int) error {
	ascending := true
	for i, f := range st.frames {
		if f.to < 0 || f.to >= size || f.to == me {
			return fmt.Errorf("frame to %d invalid for rank %d of %d", f.to, me, size)
		}
		ascending = ascending && (i == 0 || st.frames[i-1].to < f.to)
	}
	if !ascending {
		seen := make(map[int]bool, len(st.frames))
		for _, f := range st.frames {
			if seen[f.to] {
				return fmt.Errorf("duplicate frame to %d", f.to)
			}
			seen[f.to] = true
		}
	}
	for i, from := range st.recvFrom {
		if from < 0 || from >= size || from == me {
			return fmt.Errorf("expected sender %d invalid for rank %d of %d", from, me, size)
		}
		if i > 0 && from <= st.recvFrom[i-1] {
			if slices.Contains(st.recvFrom[:i], from) {
				return fmt.Errorf("expects duplicate frame from %d", from)
			}
			return fmt.Errorf("lists its senders %v out of ascending order", st.recvFrom)
		}
	}
	return nil
}

// VerifyLearnedWorld checks a world of learned (or patched) Persistents
// in one call, on the payload plane and on the programs they run. First,
// every rank's pair table must equal, row for row, the one
// ComputePersistent computes for it from the world's own declared pattern
// (each rank's own rows: its destinations and their payload sizes). The
// whole layout is derived from the table, so that holds every frame on
// both of its ends to the pairs whose dimension-ordered route it lies on,
// at the size their origin declares, and every rank to the deliveries
// addressed to it; a finding names the rank and the first row that
// differs. Then every rank is lowered into a fresh byte Replay — the
// program Persistent.Run executes, though not the Persistent's own, which
// is left as it is — and the world of them is held to plan
// (VerifyReplayWorld). That the derived layout is what the learning run
// sends is held on the wire by TestLearningFramesSorted and
// TestCompiledFramesMatchEncode.
//
// The dynamic-sparsity property suite runs it after every mutation round.
func VerifyLearnedWorld(ps []*Persistent, plan *Plan) error {
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
	if len(v.errs) > 0 {
		return v.join()
	}
	rs, err := lowerWorld(ps)
	if err != nil {
		return err
	}
	return VerifyReplayWorld(rs, plan)
}

// lowerWorld lowers every rank of a world into a fresh byte Replay: the
// programs Persistent.Run executes, built beside the Persistents' own.
func lowerWorld(ps []*Persistent) ([]*Replay, error) {
	rs := make([]*Replay, len(ps))
	for r, p := range ps {
		rs[r] = &Replay{}
		if err := p.lower(rs[r], true, 0, nil); err != nil {
			return nil, fmt.Errorf("core: verify: rank %d: %w", r, err)
		}
	}
	return rs, nil
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
