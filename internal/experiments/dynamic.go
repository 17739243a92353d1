package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"stfw/internal/core"
	"stfw/internal/dynamic"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

// The dynamic-sparsity sweep measures the claim the dynamic package exists
// for: when a fraction of an irregular pattern's pairs churn, discovering
// the change with the regularized census and incrementally patching the
// learned schedule (Discover → Patch → PatchCompiled) beats relearning the
// world from scratch (NewPersistent → Compile) — and the advantage grows as
// the mutate rate shrinks. Every patched round is gated through the full
// verifier stack (VerifyWorld, VerifyLearnedWorld, VerifyWorldAgainstPlan),
// so the numbers are for worlds proven equivalent, not merely plausible.

// DynamicRow is one (K, mutate-rate) cell of the sweep, measured on a live
// chanpt world.
type DynamicRow struct {
	K            int     `json:"k"`
	N            int     `json:"n"`
	Rate         float64 `json:"rate"`              // requested mutate rate (fraction of pairs churned per round)
	Pairs        int     `json:"pairs"`             // pattern pairs
	Mutated      int     `json:"mutated"`           // pairs actually churned per round
	RelearnNs    float64 `json:"relearn_ns"`        // whole-world NewPersistent+Compile, one collective
	PatchNs      float64 `json:"patch_ns"`          // whole-world Discover+Patch+PatchCompiled, averaged over rounds
	Speedup      float64 `json:"speedup"`           // RelearnNs / PatchNs
	DirtyStages  float64 `json:"dirty_stages"`      // mean dirty stages per rank per round (from telemetry)
	TotalPatches int64   `json:"patches_telemetry"` // telemetry patch count across the world (sanity: ranks × rounds)
}

// dynamicPattern builds the sweep's irregular pattern: every rank sends
// 32..256-word payloads to ~8 random destinations.
func dynamicPattern(rng *rand.Rand, K int) map[[2]int]int {
	pairs := map[[2]int]int{}
	for src := 0; src < K; src++ {
		for l := 0; l < 8; l++ {
			dst := rng.Intn(K)
			if dst == src {
				continue
			}
			pairs[[2]int{src, dst}] = 8 * (32 + rng.Intn(224))
		}
	}
	return pairs
}

// dynamicToggles picks an evenly spread `rate` fraction of the pattern to
// churn each round (at least one pair).
func dynamicToggles(pairs map[[2]int]int, rate float64) [][2]int {
	sorted := make([][2]int, 0, len(pairs))
	for pr := range pairs {
		sorted = append(sorted, pr)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	n := int(float64(len(sorted)) * rate)
	if n < 1 {
		n = 1
	}
	stride := len(sorted) / n
	var out [][2]int
	for i := 0; i < len(sorted) && len(out) < n; i += stride {
		out = append(out, sorted[i])
	}
	return out
}

func dynamicGather(me, xlen int, pairs map[[2]int]int) map[int][]int32 {
	g := map[int][]int32{}
	for pr, size := range pairs {
		if pr[0] != me {
			continue
		}
		idx := make([]int32, size/8)
		for i := range idx {
			idx[i] = int32((pr[0]*29 + pr[1]*13 + i*7) % xlen)
		}
		g[pr[1]] = idx
	}
	return g
}

// dynamicVerify gates a patched world through the full verifier stack,
// including conservation against an independently built static plan of the
// current pattern.
func dynamicVerify(tp *vpt.Topology, ps []*core.Persistent, pairs map[[2]int]int) error {
	scheds := core.LearnedWorldSchedules(ps)
	if err := core.VerifyWorld(scheds); err != nil {
		return fmt.Errorf("world: %w", err)
	}
	if err := core.VerifyLearnedWorld(ps); err != nil {
		return fmt.Errorf("learned world: %w", err)
	}
	ss := core.NewSendSets(tp.Size())
	for pr, size := range pairs {
		ss.Add(pr[0], pr[1], int64(size/8))
	}
	if err := ss.Normalize(); err != nil {
		return err
	}
	plan, err := core.BuildPlan(tp, ss)
	if err != nil {
		return err
	}
	if err := core.VerifyWorldAgainstPlan(scheds, plan); err != nil {
		return fmt.Errorf("against plan: %w", err)
	}
	return nil
}

// dynamicWorld keeps one goroutine per rank alive across measured
// collectives, so a timed op contains no goroutine startup — only the
// exchange under measurement.
type dynamicWorld struct {
	step []chan func(c runtime.Comm) error
	done []chan error
}

func startDynamicWorld(comms []runtime.Comm) *dynamicWorld {
	K := len(comms)
	dw := &dynamicWorld{
		step: make([]chan func(c runtime.Comm) error, K),
		done: make([]chan error, K),
	}
	for r, c := range comms {
		dw.step[r] = make(chan func(c runtime.Comm) error)
		dw.done[r] = make(chan error)
		go func(c runtime.Comm, step chan func(c runtime.Comm) error, done chan error) {
			for op := range step {
				done <- op(c)
			}
		}(c, dw.step[r], dw.done[r])
	}
	return dw
}

func (dw *dynamicWorld) collective(op func(c runtime.Comm) error) error {
	for _, ch := range dw.step {
		ch <- op
	}
	var first error
	for _, ch := range dw.done {
		if err := <-ch; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (dw *dynamicWorld) stop() {
	for _, ch := range dw.step {
		close(ch)
	}
}

// dynamicCell measures one (K, rate) cell: repeated timed relearn
// collectives, then `rounds` timed patch collectives alternating between
// removing and re-adding the toggle set, each verified before the clock
// moves on.
func dynamicCell(K, n, rounds int, rate float64) (DynamicRow, error) {
	row := DynamicRow{K: K, N: n, Rate: rate}
	tp, err := vpt.NewBalanced(K, n)
	if err != nil {
		return row, err
	}
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		return row, err
	}
	comms := w.Comms()
	const xlen = 256
	rng := rand.New(rand.NewSource(int64(K)*17 + int64(rate*1000)))
	pairs := dynamicPattern(rng, K)
	toggles := dynamicToggles(pairs, rate)
	row.Pairs, row.Mutated = len(pairs), len(toggles)

	removed := map[[2]int]int{}
	for pr, size := range pairs {
		removed[pr] = size
	}
	for _, pr := range toggles {
		delete(removed, pr)
	}
	rmDeltas := make([]dynamic.Delta, K)
	addDeltas := make([]dynamic.Delta, K)
	for _, pr := range toggles {
		rmDeltas[pr[0]].Remove = append(rmDeltas[pr[0]].Remove, pr[1])
		addDeltas[pr[0]].Add = append(addDeltas[pr[0]].Add, dynamic.Announce{Dst: pr[1], Size: pairs[pr]})
	}
	// Gather lists are a pure function of the pattern; an application holds
	// them alongside its sparsity structure, so they stay out of the timed
	// region.
	fullGather := make([]map[int][]int32, K)
	rmGather := make([]map[int][]int32, K)
	for me := 0; me < K; me++ {
		fullGather[me] = dynamicGather(me, xlen, pairs)
		rmGather[me] = dynamicGather(me, xlen, removed)
	}

	// Relearn cost: repeat the learn+compile collective and average; single
	// sub-millisecond collectives are dominated by scheduling noise. The
	// first (untimed) repetition doubles as transport and scheduler warmup.
	reg := telemetry.MustNew(telemetry.Config{Ranks: K, Stages: n})
	ps := make([]*core.Persistent, K)
	reps := make([]*core.Replay, K)
	dw := startDynamicWorld(comms)
	defer dw.stop()
	relearn := func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{}
		for pr, size := range pairs {
			if pr[0] == me {
				payloads[pr[1]] = make([]byte, size)
			}
		}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		p.Instrument(reg.Rank(me))
		r, err := p.Compile(xlen, fullGather[me])
		if err != nil {
			return err
		}
		ps[me], reps[me] = p, r
		return nil
	}
	const relearnReps = 5
	for rep := 0; rep <= relearnReps; rep++ {
		start := time.Now()
		if err := dw.collective(relearn); err != nil {
			return row, err
		}
		// The first (untimed) repetition doubles as transport warmup.
		if rep > 0 {
			row.RelearnNs += float64(time.Since(start).Nanoseconds())
		}
	}
	row.RelearnNs /= relearnReps

	var patchNs float64
	for round := 0; round < rounds; round++ {
		deltas, cur, gathers := rmDeltas, removed, rmGather
		if round%2 == 1 {
			deltas, cur, gathers = addDeltas, pairs, fullGather
		}
		start := time.Now()
		err := dw.collective(func(c runtime.Comm) error {
			me := c.Rank()
			pd, err := dynamic.Discover(c, tp, deltas[me])
			if err != nil {
				return err
			}
			st, err := ps[me].Patch(pd)
			if err != nil {
				return err
			}
			return ps[me].PatchCompiled(reps[me], xlen, gathers[me], st)
		})
		patchNs += float64(time.Since(start).Nanoseconds())
		if err != nil {
			return row, fmt.Errorf("round %d: %w", round, err)
		}
		if err := dynamicVerify(tp, ps, cur); err != nil {
			return row, fmt.Errorf("round %d: %w", round, err)
		}
	}
	row.PatchNs = patchNs / float64(rounds)
	row.Speedup = row.RelearnNs / row.PatchNs

	snap := reg.Snapshot()
	var dirty int64
	for _, r := range snap.Ranks {
		row.TotalPatches += r.Patches
		dirty += r.PatchDirtyStages
	}
	if row.TotalPatches != int64(K*rounds) {
		return row, fmt.Errorf("telemetry counted %d patches, want %d", row.TotalPatches, K*rounds)
	}
	row.DirtyStages = float64(dirty) / float64(row.TotalPatches)
	return row, nil
}

// DynamicSweep runs the mutate-rate × K sweep on live chanpt worlds. Every
// cell's patched worlds pass the full verifier stack; a verification
// failure fails the sweep.
func DynamicSweep(cfg Config) ([]DynamicRow, error) {
	cells := []struct {
		K, n int
	}{{16, 2}, {64, 3}}
	rates := []float64{0.01, 0.05, 0.20}
	const rounds = 16
	var rows []DynamicRow
	for _, c := range cells {
		for _, rate := range rates {
			row, err := dynamicCell(c.K, c.n, rounds, rate)
			if err != nil {
				return nil, fmt.Errorf("dynamic sweep K=%d rate=%.2f: %w", c.K, rate, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderDynamicSweep prints the sweep as a table.
func RenderDynamicSweep(w io.Writer, rows []DynamicRow) {
	fmt.Fprintf(w, "Dynamic sparsity: census+patch vs full relearn (chanpt, verified worlds)\n")
	fmt.Fprintf(w, "%6s %6s %7s %8s %9s %12s %12s %9s %12s\n",
		"K", "rate", "pairs", "mutated", "dirty/rk", "relearn", "patch", "speedup", "patches")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %5.0f%% %7d %8d %9.2f %10.0fus %10.0fus %8.1fx %12d\n",
			r.K, r.Rate*100, r.Pairs, r.Mutated, r.DirtyStages,
			r.RelearnNs/1e3, r.PatchNs/1e3, r.Speedup, r.TotalPatches)
	}
}
