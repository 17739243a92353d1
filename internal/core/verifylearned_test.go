package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestVerifyLearnedWorldRejectsMutations breaks each property
// VerifyLearnedWorld documents in a world learned over chanpt (K=16 on
// T2(4,4)), one mutation per world, and requires a finding that names every
// mutated rank with the stage of the mutation. The swapped-slots case keeps
// both ends of the frame in agreement and every slot on its route, so only
// the frame order rejects it.
func TestVerifyLearnedWorldRejectsMutations(t *testing.T) {
	tp := synthTopology(t, 16, 2)
	pairs := synthBasePairs(16, 16)
	if err := VerifyLearnedWorld(learnPairs(t, tp, pairs)); err != nil {
		t.Fatalf("base world rejected: %v", err)
	}
	type at struct{ rank, stage int }
	// find returns the first inbound layout (receiver r, stage d, index i)
	// of at least n slots holding a slot k that ok accepts.
	find := func(ps []*Persistent, n int, ok func(r int, k slotKey) bool) (r, d, i int, k slotKey) {
		for r, p := range ps {
			for d := range p.inLayout {
				for i, layout := range p.inLayout[d] {
					for _, k := range layout {
						if len(layout) >= n && ok(r, k) {
							return r, d, i, k
						}
					}
				}
			}
		}
		t.Fatal("no inbound layout fits the mutation")
		return
	}
	anySlot := func(int, slotKey) bool { return true }
	for _, c := range []struct {
		name   string
		mutate func(ps []*Persistent) []at
	}{
		{"inbound layout differs from the sender's frame", func(ps []*Persistent) []at {
			r, d, i, _ := find(ps, 1, anySlot)
			ps[r].inLayout[d][i] = ps[r].inLayout[d][i][1:]
			return []at{{r, d}}
		}},
		{"forwarder's size differs from the origin's", func(ps []*Persistent) []at {
			r, d, _, k := find(ps, 1, func(r int, k slotKey) bool { return int(k.src) != r && int(k.dst) != r })
			ps[r].sizes[k] += 8
			return []at{{r, d}}
		}},
		{"slot on a frame off its route", func(ps []*Persistent) []at {
			// Copy a slot of the sender's frame to r onto the same stage's
			// frame to another neighbor, on both ends of that frame.
			r, d, i, k := find(ps, 1, anySlot)
			s := ps[r].nbrFrames[d][i].to
			j := (ps[s].nbrIndex(d, r) + 1) % len(ps[s].nbrFrames[d])
			nf := &ps[s].nbrFrames[d][j]
			if nf.f == nil {
				nf.f = &pFrame{}
			}
			nf.f.slots = append(nf.f.slots, k)
			slices.SortFunc(nf.f.slots, cmpSlot)
			q := ps[nf.to]
			in := &q.inLayout[d][q.nbrIndex(d, s)]
			*in = append(*in, k)
			slices.SortFunc(*in, cmpSlot)
			return []at{{s, d}, {q.rank, d}}
		}},
		{"missing delivery", func(ps []*Persistent) []at {
			r, d, _, k := find(ps, 1, func(r int, k slotKey) bool { return int(k.dst) == r })
			ps[r].deliver = slices.DeleteFunc(ps[r].deliver, func(x slotKey) bool { return x == k })
			return []at{{r, d}}
		}},
		{"two slots swapped on both ends of one frame", func(ps []*Persistent) []at {
			r, d, i, _ := find(ps, 2, anySlot)
			s := ps[r].nbrFrames[d][i].to
			in := ps[r].inLayout[d][i]
			out := ps[s].nbrFrames[d][ps[s].nbrIndex(d, r)].f.slots
			in[0], in[1] = in[1], in[0]
			out[0], out[1] = out[1], out[0]
			return []at{{s, d}, {r, d}}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ps := learnPairs(t, tp, pairs)
			want := c.mutate(ps)
			err := VerifyLearnedWorld(ps)
			if err == nil {
				t.Fatal("mutated world accepted")
			}
			for _, w := range want {
				if name := fmt.Sprintf("rank %d stage %d ", w.rank, w.stage); !strings.Contains(err.Error(), name) {
					t.Errorf("finding does not name %q: %v", name, err)
				}
			}
		})
	}
}
