package mapping

import (
	"stfw/internal/core"
	"stfw/internal/netsim"
	"stfw/internal/vpt"
)

// This file implements the dimension-assignment planner behind the
// hierarchical composite transport (internal/transport/hier). A composite
// transport serves intra-node traffic over a cheap local sub-transport and
// inter-node traffic over the wire, so the VPT factorization that minimizes
// total cost is no longer the one the balanced scheme picks in isolation:
// aligning a prefix of the dimensions with the node boundary keeps those
// stages' forwarding hops entirely on the fast path. The planner searches
// factorizations of K and rank placements jointly, prices each candidate
// with the exact schedule (core.BuildPlan) under the machine's cost model
// (netsim.CommTime), and reports how the chosen dimension list splits into
// an intra-node prefix and an inter-node suffix.

// DimPlan is a planned hierarchical deployment.
type DimPlan struct {
	// Dims is the chosen VPT factorization k_1..k_n (product = K).
	Dims []int
	// Split partitions the dimensions for a composite transport: under
	// Placement, the stages of dimensions [0, Split) move no words across a
	// node boundary, so a hierarchical transport serves them entirely over
	// its intra-node sub-transport; dimensions [Split, n) carry the
	// inter-node traffic. Split is traffic-relative — it describes the
	// planned send sets, not every conceivable exchange on the topology.
	Split int
	// Placement is the rank-to-slot permutation to install with
	// netsim.Machine.WithPlacement (and to derive a composite transport's
	// NodeOf from).
	Placement []int
	// CrossWords is the number of payload words that cross a node boundary
	// per exchange under the assignment — the slow-link traffic the split
	// concentrates into the suffix dimensions.
	CrossWords int64
	// Cost is the modeled exchange time: netsim.CommTime of the exact plan
	// on the placed machine.
	Cost float64
}

// Topology reconstructs the planned VPT.
func (p *DimPlan) Topology() (*vpt.Topology, error) { return vpt.New(p.Dims...) }

// DimCost prices one candidate assignment: the send sets routed through t,
// ranks placed by perm (nil = linear packing), on machine m. It returns the
// words crossing node boundaries and the modeled exchange time — the two
// columns of the planner's objective, exposed so callers can line a chosen
// plan up against a baseline.
func DimCost(m *netsim.Machine, s *core.SendSets, t *vpt.Topology, perm []int) (crossWords int64, cost float64, err error) {
	_, crossWords, cost, err = evalDims(m, s, t, perm)
	return crossWords, cost, err
}

// evalDims builds the exact schedule and prices it, also returning the
// per-dimension node-crossing word counts that determine the split.
func evalDims(m *netsim.Machine, s *core.SendSets, t *vpt.Topology, perm []int) (perDim []int64, crossWords int64, cost float64, err error) {
	p, err := core.BuildPlan(t, s)
	if err != nil {
		return nil, 0, 0, err
	}
	placed, err := m.WithPlacement(perm)
	if err != nil {
		return nil, 0, 0, err
	}
	cost, err = netsim.CommTime(placed, p)
	if err != nil {
		return nil, 0, 0, err
	}
	perDim = make([]int64, t.N())
	for d, stage := range p.Stages {
		for _, f := range stage {
			if placed.Node(f.From) != placed.Node(f.To) {
				perDim[d] += f.Words
			}
		}
	}
	for _, w := range perDim {
		crossWords += w
	}
	return perDim, crossWords, cost, nil
}

// splitOf returns the length of the leading run of dimensions that move no
// words across node boundaries.
func splitOf(perDim []int64) int {
	split := 0
	for _, w := range perDim {
		if w != 0 {
			break
		}
		split++
	}
	return split
}

// candidateTopos enumerates the factorizations the planner considers, in a
// fixed order with base first: node-aligned shapes whose first dimension
// spans exactly one node's ranks (with the inter-node remainder either flat
// or balanced-factored), then the balanced schemes over all of K. Duplicates
// of earlier candidates are dropped.
func candidateTopos(K, ranksPerNode int, base *vpt.Topology) []*vpt.Topology {
	seen := map[string]bool{base.String(): true}
	out := []*vpt.Topology{base}
	add := func(dims ...int) {
		t, err := vpt.New(dims...)
		if err != nil || t.Size() != K || seen[t.String()] {
			return
		}
		seen[t.String()] = true
		out = append(out, t)
	}
	if g := ranksPerNode; g >= 2 && K%g == 0 {
		if rest := K / g; rest >= 2 {
			add(g, rest)
			add(rest, g)
			if rest&(rest-1) == 0 {
				for n := 2; n <= vpt.MaxDim(rest); n++ {
					if bt, err := vpt.NewBalanced(rest, n); err == nil {
						add(append([]int{g}, bt.Dims()...)...)
					}
				}
			}
		}
	}
	if K >= 2 && K&(K-1) == 0 {
		for n := 1; n <= vpt.MaxDim(K); n++ {
			if bt, err := vpt.NewBalanced(K, n); err == nil {
				add(bt.Dims()...)
			}
		}
	}
	return out
}

// PlanDims searches factorizations of s.K and rank placements for the
// assignment with the lowest modeled exchange time on m, and derives the
// intra-node/inter-node dimension split of the winner. The base topology
// with the identity placement is always the first candidate evaluated and
// improvements must be strict, so the result is never worse than the base
// assignment; with fixed Options the search is deterministic.
func PlanDims(m *netsim.Machine, s *core.SendSets, base *vpt.Topology, opt Options) (*DimPlan, error) {
	if err := m.Validate(s.K); err != nil {
		return nil, err
	}
	if err := s.ValidateTopology(base); err != nil {
		return nil, err
	}
	greedy, _, err := PhysicalGreedy(m, s, opt)
	if err != nil {
		return nil, err
	}
	placements := [][]int{Identity(s.K), greedy}

	var best *DimPlan
	var bestPerDim []int64
	for _, t := range candidateTopos(s.K, m.RanksPerNode, base) {
		for _, perm := range placements {
			perDim, cross, cost, err := evalDims(m, s, t, perm)
			if err != nil {
				return nil, err
			}
			if best == nil || cost < best.Cost {
				best = &DimPlan{
					Dims:       t.Dims(),
					Placement:  append([]int(nil), perm...),
					CrossWords: cross,
					Cost:       cost,
				}
				bestPerDim = perDim
			}
		}
	}
	best.Split = splitOf(bestPerDim)
	return best, nil
}
