package core

import (
	"slices"
	"testing"

	"stfw/internal/msg"
)

// fuzzWorld decodes an arbitrary byte string into a small world of replays
// (K in 2..8, 1..3 stages). The decoder deliberately produces out-of-range
// ranks, self-sends, duplicate frames and senders, senders out of order,
// tag and dimension skew, ragged stage counts, misplaced ranks, and frame
// sizes and submessage counts its receivers do not expect — the verifier
// must diagnose all of it without panicking.
func fuzzWorld(data []byte) []*Replay {
	i := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[i%len(data)]
		i++
		return int(b)
	}
	// Sizes and counts come from small ranges, so that a sender and its
	// receiver often agree.
	size := func() int32 { return int32(msg.MsgHeaderLen + 8*(next()%2)) }
	nsubs := func() int32 { return int32(next() % 2) }
	K := 2 + next()%7
	stages := 1 + next()%3
	rs := make([]*Replay, K)
	for r := range rs {
		rp := &Replay{me: r, size: K, stages: make([]rStage, stages)}
		if next()%16 == 0 {
			rp.stages = make([]rStage, 1+next()%3) // ragged stage count
		}
		if next()%32 == 0 {
			rp.me = next() % K // another rank's program
		}
		for d := range rp.stages {
			st := &rp.stages[d]
			st.tag, st.dim = StageTag(d), d
			if next()%16 == 0 {
				st.tag += 1 + next()%3 // tag skew
			}
			if next()%16 == 0 {
				st.dim = next()%5 - 1 // dimension skew, or out of range
			}
			for n := next() % 4; n > 0; n-- {
				st.frames = append(st.frames, rFrame{to: next()%(K+2) - 1, size: size(), nsubs: nsubs()})
			}
			for n := next() % 4; n > 0; n-- {
				st.recvFrom = append(st.recvFrom, next()%(K+2)-1) // allows -1 and K
				st.ins = append(st.ins, rIn{size: size(), nsubs: nsubs()})
			}
		}
		rs[r] = rp
	}
	return rs
}

// coherentFrom rebuilds a well-formed world from the fuzzed one, with its
// plan: it keeps each rank's in-range, non-self, deduplicated frames,
// unifies stage counts, tags and dimensions, derives every rank's expected
// senders, with the sizes and counts of their frames, as the exact
// transpose of the kept frames, and makes every nonempty frame a plan
// frame. By construction such a world is consistent and carries its plan,
// so the verifier must accept it — the completeness direction of the fuzz.
func coherentFrom(rs []*Replay) ([]*Replay, *Plan) {
	K, stages := len(rs), len(rs[0].stages)
	out := make([]*Replay, K)
	for r := range out {
		out[r] = &Replay{me: r, size: K, stages: make([]rStage, stages)}
		for d := range out[r].stages {
			out[r].stages[d].tag, out[r].stages[d].dim = StageTag(d), d
		}
	}
	plan := &Plan{Stages: make([][]Frame, stages)}
	for r, rp := range rs {
		for d := 0; d < stages && d < len(rp.stages); d++ {
			for _, f := range rp.stages[d].frames {
				st := &out[r].stages[d]
				if f.to < 0 || f.to >= K || f.to == r || slices.ContainsFunc(st.frames, func(g rFrame) bool { return g.to == f.to }) {
					continue
				}
				st.frames = append(st.frames, rFrame{to: f.to, size: f.size, nsubs: f.nsubs})
				if f.nsubs > 0 {
					plan.Stages[d] = append(plan.Stages[d], Frame{From: r, To: f.to, Subs: int(f.nsubs)})
				}
			}
		}
	}
	// Senders in ascending rank order leave every receiver's list ascending.
	for r := range out {
		for d := range out[r].stages {
			for _, f := range out[r].stages[d].frames {
				in := &out[f.to].stages[d]
				in.recvFrom = append(in.recvFrom, r)
				in.ins = append(in.ins, rIn{size: f.size, nsubs: f.nsubs})
			}
		}
	}
	return out, plan
}

// FuzzVerifyWorld feeds adversarial replay worlds to the verifier, against
// the plan of their coherent rebuild, and checks three properties: it
// never panics, a nil verdict is sound (every frame goes to a valid other
// rank that expects it at its size and count, every expected sender sends,
// and every frame carries the plan's count), and it accepts every world
// rebuilt into coherent form.
func FuzzVerifyWorld(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{7, 2, 1, 3, 2, 1, 0, 9, 200, 17})
	f.Add([]byte{3, 1, 16, 16, 5, 4, 3, 2, 1, 0, 255, 254, 8, 8})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := fuzzWorld(data)
		coherent, plan := coherentFrom(rs)
		K := len(rs)
		if err := VerifyReplayWorld(rs, plan); err == nil {
			// Soundness: a clean verdict means real pairwise consistency.
			subs := map[[3]int]int{}
			for d, fs := range plan.Stages {
				for _, pf := range fs {
					subs[[3]int{d, pf.From, pf.To}] = pf.Subs
				}
			}
			for r, rp := range rs {
				if rp.me != r || len(rp.stages) != len(plan.Stages) {
					t.Fatalf("verified world: slot %d holds rank %d's program of %d stages", r, rp.me, len(rp.stages))
				}
				for d := range rp.stages {
					for _, f := range rp.stages[d].frames {
						if f.to < 0 || f.to >= K || f.to == r {
							t.Fatalf("verified world has invalid frame %d->%d in stage %d", r, f.to, d)
						}
						in := &rs[f.to].stages[d]
						j := slices.Index(in.recvFrom, r)
						if j < 0 {
							t.Fatalf("verified world: frame %d->%d in stage %d has no matching expectation", r, f.to, d)
						}
						if in.ins[j].size != f.size || in.ins[j].nsubs != f.nsubs {
							t.Fatalf("verified world: frame %d->%d in stage %d differs from its expectation", r, f.to, d)
						}
						if int(f.nsubs) != subs[[3]int{d, r, f.to}] {
							t.Fatalf("verified world: frame %d->%d in stage %d carries %d submessages, the plan %d", r, f.to, d, f.nsubs, subs[[3]int{d, r, f.to}])
						}
					}
					for _, from := range rp.stages[d].recvFrom {
						if !sendsTo(rs, from, r, d) {
							t.Fatalf("verified world: rank %d expects %d in stage %d but it never sends", r, from, d)
						}
					}
				}
			}
		}
		// Completeness: the coherent rebuild must always verify.
		if err := VerifyReplayWorld(coherent, plan); err != nil {
			t.Fatalf("coherent world rejected: %v", err)
		}
	})
}

func sendsTo(rs []*Replay, from, to, d int) bool {
	if from < 0 || from >= len(rs) || d >= len(rs[from].stages) {
		return false
	}
	return slices.ContainsFunc(rs[from].stages[d].frames, func(f rFrame) bool { return f.to == to })
}
