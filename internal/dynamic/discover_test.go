package dynamic_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/dynamic"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

// routeInvolves reports whether rank me lies on the dimension-ordered route
// of (src, dst) — origin, any forwarder, or destination. This re-derives
// the census's coverage contract independently of its implementation.
func routeInvolves(t *vpt.Topology, me, src, dst int) bool {
	if src == me || dst == me {
		return true
	}
	cur := src
	for d := 0; d < t.N(); d++ {
		cur = t.RouteNext(cur, dst, d)
		if cur == me {
			return true
		}
	}
	return false
}

func sortPairs(ps []core.PatchPair) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return !a.Remove && b.Remove
	})
}

// TestDiscoverCoverage runs the census over several shapes and checks the
// coverage contract exactly: every rank receives precisely the announced
// pairs whose route involves it — no more, no fewer — with op and size
// intact.
func TestDiscoverCoverage(t *testing.T) {
	for _, c := range []struct{ K, n int }{{8, 3}, {8, 1}, {16, 2}} {
		c := c
		t.Run(fmt.Sprintf("K=%d/n=%d", c.K, c.n), func(t *testing.T) {
			t.Parallel()
			tp, err := vpt.NewBalanced(c.K, c.n)
			if err != nil {
				t.Fatal(err)
			}
			w, err := chanpt.NewWorld(c.K, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Every rank announces one addition and one removal with
			// rank-derived destinations and sizes.
			deltas := make([]dynamic.Delta, c.K)
			var all []core.PatchPair
			for r := 0; r < c.K; r++ {
				addDst := (r*3 + 1) % c.K
				rmDst := (r*5 + 2) % c.K
				deltas[r].Add = append(deltas[r].Add, dynamic.Announce{Dst: addDst, Size: 8 * (r + 1)})
				all = append(all, core.PatchPair{Src: r, Dst: addDst, Size: 8 * (r + 1)})
				if rmDst != addDst {
					deltas[r].Remove = append(deltas[r].Remove, rmDst)
					all = append(all, core.PatchPair{Src: r, Dst: rmDst, Remove: true})
				}
			}
			got := make([]*core.PatchDelta, c.K)
			err = runtime.Run(w.Comms(), func(cm runtime.Comm) error {
				d, err := dynamic.Discover(cm, tp, deltas[cm.Rank()])
				if err != nil {
					return err
				}
				got[cm.Rank()] = d
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for me := 0; me < c.K; me++ {
				var want []core.PatchPair
				for _, pr := range all {
					if routeInvolves(tp, me, pr.Src, pr.Dst) {
						want = append(want, pr)
					}
				}
				have := append([]core.PatchPair(nil), got[me].Pairs...)
				sortPairs(want)
				sortPairs(have)
				if len(have) != len(want) {
					t.Fatalf("rank %d: census returned %d pairs, want %d\nhave %+v\nwant %+v",
						me, len(have), len(want), have, want)
				}
				for i := range want {
					if have[i] != want[i] {
						t.Fatalf("rank %d pair %d: got %+v, want %+v", me, i, have[i], want[i])
					}
				}
			}
		})
	}
}

// TestDiscoverUnderFaults: the census receives in arrival order and
// returns its pairs sorted, so its result is a function of the deltas
// alone. Behind tptest.Injector's delayed sends and reordered receives
// (seeds 1 and 2) every rank's PatchDelta is DeepEqual to the one a plain
// world returns, resizes included.
func TestDiscoverUnderFaults(t *testing.T) {
	const K = 16
	tp := vpt.MustNew(4, 4)
	rng := rand.New(rand.NewSource(16))
	deltas := make([]dynamic.Delta, K)
	for r := range deltas {
		for i := 0; i < 3; i++ {
			dst := rng.Intn(K)
			switch i {
			case 0:
				deltas[r].Add = append(deltas[r].Add, dynamic.Announce{Dst: dst, Size: 8 * rng.Intn(9)})
			case 1:
				if dst != deltas[r].Add[0].Dst {
					deltas[r].Remove = append(deltas[r].Remove, dst)
				}
			case 2: // a resize of the first addition's pair
				deltas[r].Remove = append(deltas[r].Remove, deltas[r].Add[0].Dst)
			}
		}
	}
	census := func(comms []runtime.Comm) []*core.PatchDelta {
		got := make([]*core.PatchDelta, K)
		err := runtime.Run(comms, func(c runtime.Comm) error {
			pd, err := dynamic.Discover(c, tp, deltas[c.Rank()])
			got[c.Rank()] = pd
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := census(w.Comms())
	for _, cfg := range []tptest.FaultConfig{
		{Seed: 1, Delay: 0.5, MaxDelay: 100 * time.Microsecond},
		{Seed: 2, Delay: 0.5, MaxDelay: 100 * time.Microsecond},
		{Seed: 1, Reorder: 0.5},
		{Seed: 2, Reorder: 0.5},
	} {
		inj := tptest.NewInjector(cfg)
		got := census(inj.WrapAll(w.Comms()))
		if st := inj.Stats(); st.Delayed+st.Reordered == 0 {
			t.Fatalf("%+v: no fault fired", cfg)
		}
		for me := range got {
			if !reflect.DeepEqual(got[me], want[me]) {
				t.Errorf("%+v rank %d: census returned %+v, plain world %+v", cfg, me, got[me].Pairs, want[me].Pairs)
			}
		}
	}
}

// TestDiscoverValidation exercises the local rejection paths — they fail
// before any frame is sent, so a single rank can probe them without the
// rest of the world participating.
func TestDiscoverValidation(t *testing.T) {
	tp, err := vpt.NewBalanced(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := chanpt.NewWorld(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c0 := w.Comms()[0]
	cases := []struct {
		name  string
		delta dynamic.Delta
	}{
		{"dst-out-of-range", dynamic.Delta{Add: []dynamic.Announce{{Dst: 99, Size: 8}}}},
		{"dst-negative", dynamic.Delta{Remove: []int{-1}}},
		{"negative-size", dynamic.Delta{Add: []dynamic.Announce{{Dst: 1, Size: -8}}}},
		{"duplicate-add", dynamic.Delta{Add: []dynamic.Announce{{Dst: 1, Size: 8}, {Dst: 1, Size: 16}}}},
		{"duplicate-remove", dynamic.Delta{Remove: []int{1, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := dynamic.Discover(c0, tp, tc.delta); err == nil {
				t.Fatal("census accepted an invalid delta")
			}
		})
	}
	// World-size mismatch.
	small, err := vpt.NewBalanced(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dynamic.Discover(c0, small, dynamic.Delta{}); err == nil {
		t.Fatal("census accepted a topology smaller than the world")
	}
}

// BenchmarkDiscover times the census in churn-chan's shape: K=64 on
// T3(4,4,4) over chanpt, the world stepped in lock step by
// tptest.Lockstep, eight distinct seeded pairs announced per census —
// removals and additions of 32–255 words on alternate iterations. One op
// is one census on every rank.
func BenchmarkDiscover(b *testing.B) {
	const K, toggles = 64, 8
	tp := vpt.MustNew(4, 4, 4)
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var deltas [2][]dynamic.Delta
	deltas[0], deltas[1] = make([]dynamic.Delta, K), make([]dynamic.Delta, K)
	rng := rand.New(rand.NewSource(K))
	seen := map[[2]int]bool{}
	for len(seen) < toggles {
		pr := [2]int{rng.Intn(K), rng.Intn(K)}
		if seen[pr] {
			continue
		}
		seen[pr] = true
		deltas[0][pr[0]].Remove = append(deltas[0][pr[0]].Remove, pr[1])
		deltas[1][pr[0]].Add = append(deltas[1][pr[0]].Add, dynamic.Announce{Dst: pr[1], Size: 8 * (32 + rng.Intn(224))})
	}
	step, stop := tptest.Lockstep(w.Comms(), func(c runtime.Comm, iter int) error {
		_, err := dynamic.Discover(c, tp, deltas[iter%2][c.Rank()])
		return err
	})
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}
