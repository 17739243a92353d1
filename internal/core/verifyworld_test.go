package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"stfw/internal/vpt"
)

// verifiedWorld learns a pattern over chanpt on NewFactored(12, 2) and
// returns its plan and a builder of fresh copies of its replay world (every
// rank lowered), which must verify.
func verifiedWorld(t *testing.T) (func() []*Replay, *Plan) {
	t.Helper()
	tp, err := vpt.NewFactored(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := synthBasePairs(12, tp.Size())
	plan := synthPlan(tp, pairs)
	ps := learnPairs(t, tp, pairs)
	world := func() []*Replay {
		rs, err := lowerWorld(ps)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	if err := VerifyReplayWorld(world(), plan); err != nil {
		t.Fatalf("baseline world must verify: %v", err)
	}
	return world, plan
}

// rejects runs each mutation on a fresh copy of a verified world and
// requires VerifyReplayWorld to reject it with a finding holding the text
// the mutation returns ("" = the world must still verify).
func rejects(t *testing.T, world func() []*Replay, plan *Plan, rows []mutation) {
	t.Helper()
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			w := world()
			want := tc.mutate(w)
			err := VerifyReplayWorld(w, plan)
			switch {
			case want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case want != "" && err == nil:
				t.Fatalf("mutation %q verified cleanly", tc.name)
			case want != "" && !strings.Contains(err.Error(), want):
				t.Fatalf("mutation %q: error %q does not hold %q", tc.name, err, want)
			}
		})
	}
}

type mutation struct {
	name   string
	mutate func([]*Replay) string
}

// TestValidateSchedule breaks one rank's stage on its own — rank 2's stage
// 0, whose neighbours are ranks 0, 1 and 3 — in a verified world, one
// defect per row, and requires a finding that names the rank, the stage
// and the defect. A sender listed twice is rejected before any frame
// moves, not left to wait for a second frame that never comes; frames out
// of ascending destination order are accepted.
func TestValidateSchedule(t *testing.T) {
	world, plan := verifiedWorld(t)
	stage := func(w []*Replay) *rStage { return &w[2].stages[0] }
	// expect puts an expected sender at index i, with a receive program.
	expect := func(st *rStage, i, from int) {
		st.recvFrom = slices.Insert(st.recvFrom, i, from)
		st.ins = slices.Insert(st.ins, i, rIn{})
	}
	rejects(t, world, plan, []mutation{
		{"unordered sends", func(w []*Replay) string {
			slices.Reverse(stage(w).frames)
			return ""
		}},
		{"duplicate send slot", func(w []*Replay) string {
			st := stage(w)
			st.frames = append(st.frames, st.frames[0])
			return "rank 2 stage 0: duplicate frame to 0"
		}},
		{"duplicate sender", func(w []*Replay) string {
			expect(stage(w), 3, 3)
			return "rank 2 stage 0: expects duplicate frame from 3"
		}},
		{"senders out of order", func(w []*Replay) string {
			rf := stage(w).recvFrom
			rf[0], rf[1] = rf[1], rf[0]
			return "rank 2 stage 0: lists its senders [1 0 3] out of ascending order"
		}},
		{"send slot out of range", func(w []*Replay) string {
			st := stage(w)
			st.frames = append(st.frames, rFrame{to: 12})
			return "rank 2 stage 0: frame to 12 invalid for rank 2 of 12"
		}},
		{"recv slot out of range", func(w []*Replay) string {
			expect(stage(w), 0, -1)
			return "rank 2 stage 0: expected sender -1 invalid for rank 2 of 12"
		}},
		{"send slot to self", func(w []*Replay) string {
			stage(w).frames[0].to = 2
			return "rank 2 stage 0: frame to 2 invalid for rank 2 of 12"
		}},
		{"recv slot from self", func(w []*Replay) string {
			expect(stage(w), 2, 2)
			return "rank 2 stage 0: expected sender 2 invalid for rank 2 of 12"
		}},
	})
}

// TestVerifyWorldRejectsMutations breaks a verified world one defect per
// row — a frame no one expects, an expectation no one meets, skewed stage
// structure, a self send and a duplicate frame, submessage counts and
// sizes that disagree with the plan or the receiver — and requires a
// finding naming the rank and the stage.
func TestVerifyWorldRejectsMutations(t *testing.T) {
	world, plan := verifiedWorld(t)
	// nonempty returns the first rank, stage and frame that carries a
	// submessage.
	nonempty := func(rs []*Replay) (int, int, *rFrame) {
		for r, rp := range rs {
			for d := range rp.stages {
				for i := range rp.stages[d].frames {
					if f := &rp.stages[d].frames[i]; f.nsubs > 0 {
						return r, d, f
					}
				}
			}
		}
		t.Fatal("no frame carries a submessage")
		return 0, 0, nil
	}
	rejects(t, world, plan, []mutation{
		{"dropped expected sender", func(w []*Replay) string {
			st := &w[3].stages[0]
			from := st.recvFrom[len(st.recvFrom)-1]
			st.recvFrom, st.ins = st.recvFrom[:len(st.recvFrom)-1], st.ins[:len(st.ins)-1]
			return fmt.Sprintf("rank %d stage 0 sends to 3, which does not expect a frame from it", from)
		}},
		{"orphan expected sender", func(w []*Replay) string {
			st := &w[0].stages[0]
			to := st.frames[len(st.frames)-1].to
			st.frames = st.frames[:len(st.frames)-1]
			return fmt.Sprintf("rank %d stage 0 expects a frame from 0, which never sends one (orphan sender)", to)
		}},
		{"tag skew", func(w []*Replay) string {
			w[5].stages[1].tag++
			return "rank 5 stage 1 uses tag"
		}},
		{"dimension skew", func(w []*Replay) string {
			w[5].stages[1].dim = 0
			return "rank 5 stage 1 routes dimension 0, rank 0 routes 1"
		}},
		{"dimension out of range", func(w []*Replay) string {
			w[1].stages[0].dim = len(w[1].stages)
			return "rank 1 stage 0 declares dimension 2, outside [0,2)"
		}},
		{"stage count skew", func(w []*Replay) string {
			w[2].stages = w[2].stages[:1]
			return "rank 2 has 1 stages, the plan 2"
		}},
		{"self send", func(w []*Replay) string {
			w[4].stages[0].frames[0].to = 4
			return "rank 4 stage 0: frame to 4 invalid for rank 4 of 12"
		}},
		{"duplicate send slot", func(w []*Replay) string {
			st := &w[0].stages[0]
			st.frames = append(st.frames, st.frames[0])
			return fmt.Sprintf("rank 0 stage 0: duplicate frame to %d", st.frames[0].to)
		}},
		{"inflated nsubs", func(w []*Replay) string {
			r, d, f := nonempty(w)
			f.nsubs++
			return fmt.Sprintf("rank %d stage %d frame to %d carries %d submessages, the plan %d", r, d, f.to, f.nsubs, f.nsubs-1)
		}},
		{"zeroed nsubs", func(w []*Replay) string {
			r, d, f := nonempty(w)
			n := f.nsubs
			f.nsubs = 0
			return fmt.Sprintf("rank %d stage %d frame to %d carries 0 submessages, the plan %d", r, d, f.to, n)
		}},
		{"frame size differs from the receiver's expected size", func(w []*Replay) string {
			r, d, f := nonempty(w)
			f.size += 8
			return fmt.Sprintf("rank %d stage %d frame to %d has %d bytes and %d submessages, rank %d expects %d and %d",
				r, d, f.to, f.size, f.nsubs, f.to, f.size-8, f.nsubs)
		}},
	})
}
