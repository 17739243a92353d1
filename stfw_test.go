package stfw

import (
	"fmt"
	"math"
	"sort"
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
	w, err := LocalWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c Comm) error {
		dests := []int{(c.Rank() + 1) % K}
		srcs, err := DiscoverSources(c, dests)
		if err != nil {
			return err
		}
		sort.Ints(srcs)
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
