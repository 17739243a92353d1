package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestVerifyLearnedWorldRejectsMutations breaks one rank's pair table in a
// world learned over chanpt (K=16 on T2(4,4)), one mutation per world,
// derives the rank's layout again from the broken table, and requires a
// finding that names the rank. The rows: a forwarder drops a pair (so its
// inbound frame lacks a slot its sender's carries); a forwarder resizes a
// pair; a rank off a pair's route carries it; a destination drops a pair
// it is sent.
func TestVerifyLearnedWorldRejectsMutations(t *testing.T) {
	tp := synthTopology(t, 16, 2)
	pairs := synthBasePairs(16, 16)
	plan := synthPlan(tp, pairs)
	if err := VerifyLearnedWorld(learnPairs(t, tp, pairs), plan); err != nil {
		t.Fatalf("base world rejected: %v", err)
	}
	// find returns the first rank and row of a table whose pair ok accepts.
	find := func(ps []*Persistent, ok func(r int, k slotKey) bool) (r, i int) {
		for r, p := range ps {
			for i, e := range p.pairs {
				if ok(r, e.k) {
					return r, i
				}
			}
		}
		t.Fatal("no row fits the mutation")
		return
	}
	forwarded := func(r int, k slotKey) bool { return int(k.src) != r && int(k.dst) != r }
	delivered := func(r int, k slotKey) bool { return int(k.src) != r && int(k.dst) == r }
	for _, c := range []struct {
		name   string
		mutate func(ps []*Persistent) (rank int)
	}{
		{"inbound layout differs from the sender's frame", func(ps []*Persistent) int {
			r, i := find(ps, forwarded)
			ps[r].pairs = slices.Delete(ps[r].pairs, i, i+1)
			return r
		}},
		{"forwarder's size differs from the origin's", func(ps []*Persistent) int {
			r, i := find(ps, forwarded)
			ps[r].pairs[i].n += 8
			return r
		}},
		{"pair carried by a rank off its route", func(ps []*Persistent) int {
			r, i := find(ps, forwarded)
			e := ps[r].pairs[i]
			for q, p := range ps {
				if _, on := routeHops(tp, q, int(e.k.src), int(e.k.dst)); !on {
					at, _ := p.findPair(e.k)
					p.pairs = slices.Insert(p.pairs, at, e)
					return q
				}
			}
			t.Fatalf("every rank lies on the route of %d->%d", e.k.src, e.k.dst)
			return -1
		}},
		{"missing delivery", func(ps []*Persistent) int {
			r, i := find(ps, delivered)
			ps[r].pairs = slices.Delete(ps[r].pairs, i, i+1)
			return r
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ps := learnPairs(t, tp, pairs)
			r := c.mutate(ps)
			ps[r].derive()
			err := VerifyLearnedWorld(ps, plan)
			if err == nil {
				t.Fatal("mutated world accepted")
			}
			if name := fmt.Sprintf("rank %d: ", r); !strings.Contains(err.Error(), name) {
				t.Errorf("finding does not name %q: %v", name, err)
			}
		})
	}
}
