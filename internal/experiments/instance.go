// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): Table 1 (matrix properties), Figure 1 (per-process
// message counts), Table 2 and Figures 6-8 (metrics, normalized metrics,
// per-matrix detail, scalability on BlueGene/Q), Figure 9 (networks), and
// Table 3 / Figure 10 (large-scale analysis on Cray XK7 and XC40). Each
// experiment returns structured results and has a text renderer used by
// cmd/stfwbench and the root benchmark harness.
package experiments

import (
	"fmt"
	"math/bits"
	"sync"

	"stfw/internal/core"
	"stfw/internal/netsim"
	"stfw/internal/partition"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
)

// Config controls experiment fidelity.
type Config struct {
	// Scale shrinks every catalog matrix by this factor (see
	// sparse.ScaleParams); 1 reproduces full-size structures. The default
	// used by tests and benches is 8, which preserves the paper's regimes
	// while keeping single-machine runs fast.
	Scale int
}

// DefaultConfig is the fidelity used by the benchmark harness.
func DefaultConfig() Config { return Config{Scale: 8} }

func (c Config) scale() int {
	if c.Scale < 1 {
		return 1
	}
	return c.Scale
}

// Instance is one prepared (matrix, K) problem: the partition-induced SpMV
// communication requirement plus the per-rank work.
type Instance struct {
	Matrix string
	K      int
	Sends  *core.SendSets
	NNZ    []int64
	Stats  sparse.Stats
}

// instanceCache avoids regenerating matrices and patterns across
// experiments; keyed by matrix/scale and matrix/scale/K.
type instanceCache struct {
	mu       sync.Mutex
	matrices map[string]*sparse.CSR
	inst     map[string]*Instance
}

var cache = &instanceCache{
	matrices: map[string]*sparse.CSR{},
	inst:     map[string]*Instance{},
}

// matrix returns the (possibly cached) scaled catalog matrix.
func (c *instanceCache) matrix(name string, scale int) (*sparse.CSR, error) {
	key := fmt.Sprintf("%s/%d", name, scale)
	c.mu.Lock()
	m := c.matrices[key]
	c.mu.Unlock()
	if m != nil {
		return m, nil
	}
	m, err := sparse.CatalogMatrix(name, scale)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.matrices[key] = m
	c.mu.Unlock()
	return m, nil
}

// Prepare builds (or fetches) the instance for one catalog matrix at K
// processes: generate the scaled analog, partition its rows with the greedy
// partitioner (the PaToH stand-in), and derive the SpMV send sets.
func Prepare(cfg Config, name string, K int) (*Instance, error) {
	key := fmt.Sprintf("%s/%d/%d", name, cfg.scale(), K)
	cache.mu.Lock()
	if inst := cache.inst[key]; inst != nil {
		cache.mu.Unlock()
		return inst, nil
	}
	cache.mu.Unlock()

	m, err := cache.matrix(name, cfg.scale())
	if err != nil {
		return nil, err
	}
	part, err := partition.Greedy(m, K, partition.DefaultGreedy())
	if err != nil {
		return nil, err
	}
	pat, err := spmv.BuildPattern(m, part)
	if err != nil {
		return nil, err
	}
	sends, err := pat.SendSets()
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		Matrix: name,
		K:      K,
		Sends:  sends,
		NNZ:    pat.NNZ,
		Stats:  sparse.ComputeStats(m),
	}
	cache.mu.Lock()
	cache.inst[key] = inst
	cache.mu.Unlock()
	return inst, nil
}

// MachineFor returns the machine profile by name ("bgq", "xk7", "xc40")
// sized for K ranks.
func MachineFor(name string, K int) (*netsim.Machine, error) {
	switch name {
	case "bgq":
		return netsim.BlueGeneQ(K)
	case "xk7":
		return netsim.CrayXK7(K)
	case "xc40":
		return netsim.CrayXC40(K)
	default:
		return nil, fmt.Errorf("experiments: unknown machine %q", name)
	}
}

// AllDims returns every VPT dimension the paper sweeps for K: 2..lg2(K).
func AllDims(K int) []int {
	lg := bits.Len(uint(K)) - 1
	dims := make([]int, 0, lg-1)
	for n := 2; n <= lg; n++ {
		dims = append(dims, n)
	}
	return dims
}

// EvenDims returns the even dimensions Figure 8 plots: {2,4,6,8} up to
// lg2(K).
func EvenDims(K int) []int {
	lg := bits.Len(uint(K)) - 1
	var dims []int
	for n := 2; n <= lg && n <= 8; n += 2 {
		dims = append(dims, n)
	}
	return dims
}

// LargeScaleDims returns the Section 6.5 selection for K: the lowest three
// dimensions (2,3,4), the middle two (floor(lgK/2)+1, floor(lgK/2)+2), and
// the highest two (lgK-1, lgK).
func LargeScaleDims(K int) []int {
	lg := bits.Len(uint(K)) - 1
	mid := lg / 2
	set := []int{2, 3, 4, mid + 1, mid + 2, lg - 1, lg}
	// Deduplicate while preserving order (small K could collide).
	seen := map[int]bool{}
	var out []int
	for _, n := range set {
		if n >= 2 && n <= lg && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
