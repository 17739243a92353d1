package stfw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	const K = 16
	topo, err := BalancedTopology(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	if topo.String() != "T2(4,4)" {
		t.Errorf("topology %v", topo)
	}
	if MessageBound(topo) != 6 {
		t.Errorf("bound %d", MessageBound(topo))
	}
	w, err := LocalWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c Comm) error {
		// Rank 0 fans out to everyone (the hot-spot pattern).
		payloads := map[int][]byte{}
		if c.Rank() == 0 {
			for j := 1; j < K; j++ {
				payloads[j] = []byte{byte(j)}
			}
		}
		d, err := Exchange(c, topo, payloads)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if len(d.Subs) != 0 {
				return fmt.Errorf("rank 0 got %d deliveries", len(d.Subs))
			}
			return nil
		}
		if len(d.Subs) != 1 || d.Subs[0].Src != 0 || d.Subs[0].Data[0] != byte(c.Rank()) {
			return fmt.Errorf("rank %d: bad delivery %+v", c.Rank(), d.Subs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadePlanningPipeline(t *testing.T) {
	const K = 64
	s := NewSendSets(K)
	for j := 1; j < K; j++ {
		s.Add(0, j, 4) // hot sender
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	direct, err := BuildDirectPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BalancedTopology(K, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(topo, s)
	if err != nil {
		t.Fatal(err)
	}
	dsum, err := Summarize("BL", direct, s)
	if err != nil {
		t.Fatal(err)
	}
	ssum, err := Summarize("STFW3", plan, s)
	if err != nil {
		t.Fatal(err)
	}
	if ssum.MMax >= dsum.MMax {
		t.Errorf("STFW mmax %.0f not below BL %.0f", ssum.MMax, dsum.MMax)
	}
	m, err := BlueGeneQ(K)
	if err != nil {
		t.Fatal(err)
	}
	tBL, err := CommTime(m, direct)
	if err != nil {
		t.Fatal(err)
	}
	tST, err := CommTime(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if tST >= tBL {
		t.Errorf("STFW time %.2g not below BL %.2g on hot-spot", tST, tBL)
	}
}

func TestFacadeDiscoverSources(t *testing.T) {
	const K = 8
	topo, err := BalancedTopology(K, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := LocalWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c Comm) error {
		dests := []int{(c.Rank() + 1) % K}
		srcs, err := DiscoverSources(c, topo, dests)
		if err != nil {
			return err
		}
		want := (c.Rank() + K - 1) % K
		if len(srcs) != 1 || srcs[0] != want {
			return fmt.Errorf("rank %d: sources %v, want [%d]", c.Rank(), srcs, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeDiscoverSourcesWorlds holds DiscoverSources to the receive sets
// of a seeded pattern — one heavy sender, two light destinations per rank —
// on power-of-two, non-power-of-two and mixed-radix worlds. In the "twice"
// world every rank lists each destination twice and itself once, and still
// learns each source once and never itself.
func TestFacadeDiscoverSourcesWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		name  string
		dims  []int
		twice bool
	}{
		{"K=8/T3(2,2,2)", []int{2, 2, 2}, false},
		{"K=16/T4(2,2,2,2)", []int{2, 2, 2, 2}, false},
		{"K=7/T1(7)", []int{7}, false},
		{"K=12/T2(3,4)", []int{3, 4}, false},
		{"K=12/T2(3,4)/twice", []int{3, 4}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := NewTopology(tc.dims...)
			if err != nil {
				t.Fatal(err)
			}
			K := topo.Size()
			s := NewSendSets(K)
			heavy := rng.Intn(K)
			for dst := 0; dst < K; dst++ {
				if dst != heavy && rng.Intn(4) != 0 {
					s.Add(heavy, dst, 1)
				}
			}
			for src := 0; src < K; src++ {
				for l := 0; l < 2; l++ {
					if dst := rng.Intn(K); dst != src {
						s.Add(src, dst, 1)
					}
				}
			}
			if err := s.Normalize(); err != nil {
				t.Fatal(err)
			}
			recv := s.RecvSets()
			w, err := LocalWorld(K)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c Comm) error {
				me := c.Rank()
				var dests []int
				for _, pr := range s.Sets[me] {
					dests = append(dests, pr.Dst)
				}
				if tc.twice {
					dests = append(append(dests, me), dests...)
				}
				srcs, err := DiscoverSources(c, topo, dests)
				if err != nil {
					return err
				}
				want := []int{}
				for _, pr := range recv[me] {
					want = append(want, pr.Dst)
				}
				if !slices.Equal(srcs, want) {
					return fmt.Errorf("rank %d: sources %v, want %v", me, srcs, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFacadeTCPWorld(t *testing.T) {
	const K = 4
	topo, err := BalancedTopology(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := TCPWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c Comm) error {
		d, err := Exchange(c, topo, map[int][]byte{(c.Rank() + 1) % K: {1}})
		if err != nil {
			return err
		}
		if len(d.Subs) != 1 {
			return fmt.Errorf("rank %d: %d deliveries", c.Rank(), len(d.Subs))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAnalysisValues(t *testing.T) {
	if got := VolumeBlowup(4, 4); math.Abs(got-3.01) > 0.01 {
		t.Errorf("VolumeBlowup(4,4) = %.3f", got)
	}
	if MaxTopologyDim(4096) != 12 {
		t.Errorf("MaxTopologyDim(4096) = %d", MaxTopologyDim(4096))
	}
	if _, err := NewTopology(3, 3); err != nil {
		t.Errorf("NewTopology: %v", err)
	}
	if _, err := DirectTopology(10); err != nil {
		t.Errorf("DirectTopology: %v", err)
	}
	machines := []func(int) (*Machine, error){BlueGeneQ, CrayXK7, CrayXC40}
	for _, mk := range machines {
		if _, err := mk(256); err != nil {
			t.Error(err)
		}
	}
}
