package core_test

import (
	"strings"
	"testing"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

// confWorldSendSets lifts the conformance dest-lists into normalized
// SendSets (one unit-word submessage per (src, dst) pair, exactly how the
// conformance payload maps drive the executors).
func confWorldSendSets(t *testing.T, K int, dests map[int][]int) *core.SendSets {
	t.Helper()
	s := core.NewSendSets(K)
	for src, ds := range dests {
		for _, dst := range ds {
			s.Add(src, dst, 1)
		}
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVerifyWorldFrontends runs the whole-world verifier over the two
// statically-buildable schedule front-ends on every conformance topology:
// dynamic (topology only) and the single-stage direct baseline (against the
// direct plan).
func TestVerifyWorldFrontends(t *testing.T) {
	for _, tp := range conformanceTopologies(t) {
		K := tp.Size()
		dests := confSendSets(int64(K), K)
		sends := confWorldSendSets(t, K, dests)

		if err := core.VerifyWorld(core.WorldSchedules(tp)); err != nil {
			t.Errorf("dynamic front-end, K=%d dims=%v: %v", K, tp.Dims(), err)
		}

		dplan, err := core.BuildDirectPlan(sends)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.VerifyWorldAgainstPlan(core.DirectWorldSchedules(sends), dplan); err != nil {
			t.Errorf("direct front-end, K=%d: %v", K, err)
		}
	}
}

// TestVerifyWorldLearned runs a real learning exchange per topology and
// checks that the learned schedules verify — and conserve submessages
// against the independently computed static plan, pinning the learned
// occupancy to the router's ground truth — and that every rank equals, slot
// for slot, the layout ComputePersistent builds from the same pattern
// (VerifyLearnedWorld).
func TestVerifyWorldLearned(t *testing.T) {
	for _, tp := range conformanceTopologies(t) {
		tp := tp
		t.Run(tp.String(), func(t *testing.T) {
			t.Parallel()
			K := tp.Size()
			dests := confSendSets(int64(K), K)
			ps := learnedWorld(t, tp, dests)
			if err := core.VerifyLearnedWorld(ps); err != nil {
				t.Errorf("learned world differs from the computed one, K=%d dims=%v: %v", K, tp.Dims(), err)
			}
			scheds := core.LearnedWorldSchedules(ps)
			if err := core.VerifyWorld(scheds); err != nil {
				t.Errorf("learned front-end, K=%d dims=%v: %v", K, tp.Dims(), err)
			}
			plan, err := core.BuildPlan(tp, confWorldSendSets(t, K, dests))
			if err != nil {
				t.Fatal(err)
			}
			if err := core.VerifyWorldAgainstPlan(scheds, plan); err != nil {
				t.Errorf("learned schedules do not conserve the plan's traffic, K=%d dims=%v: %v", K, tp.Dims(), err)
			}
		})
	}
}

// learnedWorld runs a learning exchange of dests over chanpt and returns
// every rank's Persistent.
func learnedWorld(t *testing.T, tp *vpt.Topology, dests map[int][]int) []*core.Persistent {
	t.Helper()
	K := tp.Size()
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]*core.Persistent, K)
	err = runtime.Run(w.Comms(), func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{}
		for _, dst := range dests[me] {
			payloads[dst] = confPayload(me, dst)
		}
		var err error
		ps[me], _, err = core.NewPersistent(c, tp, payloads)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// copyWorld deep-copies schedules so every mutation starts from the
// verified base world.
func copyWorld(scheds []*core.StageSchedule) []*core.StageSchedule {
	out := make([]*core.StageSchedule, len(scheds))
	for r, s := range scheds {
		cs := &core.StageSchedule{Stages: make([]core.ScheduleStage, len(s.Stages))}
		for d, st := range s.Stages {
			cs.Stages[d] = core.ScheduleStage{
				Tag:      st.Tag,
				Dim:      st.Dim,
				Sends:    append([]core.SendSlot(nil), st.Sends...),
				RecvFrom: append([]int(nil), st.RecvFrom...),
			}
		}
		out[r] = cs
	}
	return out
}

// TestVerifyWorldRejectsMutations hand-mutates a verified learned world
// (a chanpt learning run) one defect at a time and checks each is caught,
// with a recognizable message.
func TestVerifyWorldRejectsMutations(t *testing.T) {
	tp, err := vpt.NewFactored(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	K := tp.Size()
	dests := confSendSets(int64(K), K)
	sends := confWorldSendSets(t, K, dests)
	plan, err := core.BuildPlan(tp, sends)
	if err != nil {
		t.Fatal(err)
	}
	base := core.LearnedWorldSchedules(learnedWorld(t, tp, dests))
	if err := core.VerifyWorldAgainstPlan(base, plan); err != nil {
		t.Fatalf("baseline world must verify: %v", err)
	}

	cases := []struct {
		name   string
		mutate func([]*core.StageSchedule)
		want   string // substring of the expected error
	}{
		{
			name: "dropped expected sender",
			mutate: func(w []*core.StageSchedule) {
				rf := w[3].Stages[0].RecvFrom
				w[3].Stages[0].RecvFrom = rf[:len(rf)-1]
			},
			want: "does not expect a frame",
		},
		{
			name: "orphan expected sender",
			mutate: func(w []*core.StageSchedule) {
				s0 := &w[0].Stages[0]
				s0.Sends = s0.Sends[:len(s0.Sends)-1]
			},
			want: "orphan sender",
		},
		{
			name: "tag skew",
			mutate: func(w []*core.StageSchedule) {
				w[5].Stages[1].Tag++
			},
			want: "uses tag",
		},
		{
			name: "dimension skew",
			mutate: func(w []*core.StageSchedule) {
				w[5].Stages[1].Dim = 0
			},
			want: "routes dimension",
		},
		{
			name: "dimension out of range",
			mutate: func(w []*core.StageSchedule) {
				w[1].Stages[0].Dim = len(w[1].Stages)
			},
			want: "outside",
		},
		{
			name: "stage count skew",
			mutate: func(w []*core.StageSchedule) {
				w[2].Stages = w[2].Stages[:1]
			},
			want: "stages",
		},
		{
			name: "self send",
			mutate: func(w []*core.StageSchedule) {
				w[4].Stages[0].Sends[0].To = 4
			},
			want: "invalid for rank",
		},
		{
			name: "duplicate send slot",
			mutate: func(w []*core.StageSchedule) {
				s0 := &w[0].Stages[0]
				s0.Sends = append(s0.Sends, s0.Sends[0])
			},
			want: "duplicate send slot",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := copyWorld(base)
			tc.mutate(w)
			err := core.VerifyWorld(w)
			if err == nil {
				t.Fatalf("mutation %q verified cleanly", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mutation %q: error %q does not mention %q", tc.name, err, tc.want)
			}
		})
	}

	planCases := []struct {
		name   string
		mutate func([]*core.StageSchedule)
		want   string
	}{
		{
			name: "inflated reserve",
			mutate: func(w []*core.StageSchedule) {
			outer:
				for _, s := range w {
					for d := range s.Stages {
						for i := range s.Stages[d].Sends {
							if s.Stages[d].Sends[i].Reserve > 0 {
								s.Stages[d].Sends[i].Reserve++
								break outer
							}
						}
					}
				}
			},
			want: "plan says",
		},
		{
			name: "zeroed reserve",
			mutate: func(w []*core.StageSchedule) {
			outer:
				for _, s := range w {
					for d := range s.Stages {
						for i := range s.Stages[d].Sends {
							if s.Stages[d].Sends[i].Reserve > 0 {
								s.Stages[d].Sends[i].Reserve = 0
								break outer
							}
						}
					}
				}
			},
			want: "reserves none",
		},
	}
	for _, tc := range planCases {
		t.Run(tc.name, func(t *testing.T) {
			w := copyWorld(base)
			tc.mutate(w)
			if err := core.VerifyWorld(w); err != nil {
				t.Fatalf("reserve mutation must still pass VerifyWorld, got %v", err)
			}
			err := core.VerifyWorldAgainstPlan(w, plan)
			if err == nil {
				t.Fatalf("mutation %q conserved the plan", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mutation %q: error %q does not mention %q", tc.name, err, tc.want)
			}
		})
	}
}
