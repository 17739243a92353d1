package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"stfw/internal/core"
	"stfw/internal/dynamic"
	"stfw/internal/iterative"
	"stfw/internal/mapping"
	"stfw/internal/netsim"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
	"stfw/internal/telemetry"
	"stfw/internal/transport/hier"
	"stfw/internal/vpt"
)

// relTol is how far an output may sit from the serial reference, relative to
// the reference's largest entry. The compiled kernel walks each row in CSR
// order, so SpMV outputs are in fact bit-identical.
const relTol = 1e-12

// cgTol is the same bound for a CG solution. The distributed solver reduces
// its dot products in a different order than iterative.SerialCG, and both
// stop at a relative residual of 1e-10, so the solutions agree to the
// residual, not to the last bit.
const cgTol = 1e-8

// instance is one workload's generated inputs with their serial references.
// setup runs the program's whole set-up path on them — partition, pattern,
// topology or plan, world constructor, per-rank session, learning iteration
// and compile — and returns the running world. Generating the inputs is the
// benchmark's job and stays outside set-up time.
type instance interface {
	setup(wrap wrapFunc, st *setupTimes) (*world, error)
}

func generate(sp spec, seed int64) (instance, error) {
	switch sp.kind {
	case kindSpMV:
		return genSpMV(sp, seed)
	case kindCG:
		return genCG(sp, seed)
	case kindChurn:
		return genChurn(sp, seed), nil
	case kindReplay:
		return genReplay(sp, seed)
	}
	return nil, fmt.Errorf("workload %s: unknown kind %d", sp.name, sp.kind)
}

func genMatrix(sp spec, seed int64) (*sparse.CSR, error) {
	e, err := sparse.Lookup(sp.matrix)
	if err != nil {
		return nil, err
	}
	p := sparse.ScaleParams(e.Params, sp.scale)
	p.Seed = seed
	return sparse.Generate(p)
}

func normalVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// checkRows compares got with ref on the given rows.
func checkRows(got, ref []float64, rows []int, tol float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("output has %d entries, reference %d", len(got), len(ref))
	}
	bound := tol * maxAbs(ref)
	for _, i := range rows {
		if d := math.Abs(got[i] - ref[i]); !(d <= bound) {
			return fmt.Errorf("row %d: got %g, reference %g", i, got[i], ref[i])
		}
	}
	return nil
}

// ---- spmv-* ---------------------------------------------------------------

type spmvInstance struct {
	sp   spec
	a    *sparse.CSR
	xs   [][]float64 // one input vector per chunk, cycled
	refs [][]float64 // refs[j] = A * xs[j], serial CSR multiply
}

func genSpMV(sp spec, seed int64) (*spmvInstance, error) {
	a, err := genMatrix(sp, seed)
	if err != nil {
		return nil, err
	}
	in := &spmvInstance{sp: sp, a: a}
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < 4; j++ {
		x := normalVector(rng, a.Cols)
		ref, err := a.MulVec(nil, x)
		if err != nil {
			return nil, err
		}
		in.xs = append(in.xs, x)
		in.refs = append(in.refs, ref)
	}
	return in, nil
}

// matrixSetup is the part of set-up the SpMV and CG workloads share.
func matrixSetup(sp spec, a *sparse.CSR, st *setupTimes) (*partition.Partition, *spmv.Pattern, *vpt.Topology, []runtime.Comm, func(), error) {
	topo, err := vpt.New(sp.dims...)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	t := time.Now()
	part, err := partition.Greedy(a, sp.K, partition.DefaultGreedy())
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	st.greedy = lap(&t)
	pat, err := spmv.BuildPattern(a, part)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	st.pattern = lap(&t)
	comms, closeFn, err := openWorld(sp.transport, sp.K, nil)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	st.world = lap(&t)
	return part, pat, topo, comms, closeFn, nil
}

func (in *spmvInstance) setup(wrap wrapFunc, st *setupTimes) (*world, error) {
	sp := in.sp
	part, pat, topo, comms, closeFn, err := matrixSetup(sp, in.a, st)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	opt := spmv.Options{Method: spmv.STFW, Topo: topo}
	w := &world{closeFn: closeFn, topo: topo, sessions: make([]*spmv.Session, sp.K)}
	if sp.telemetry {
		w.reg = telemetry.MustNew(telemetry.Config{Ranks: sp.K, Stages: topo.N()})
		opt.Telemetry = w.reg
		comms = w.reg.WrapComms(comms, func(tag int) (int, bool) { return core.TagStage(tag, topo.N()) })
	}
	w.comms = wrap(comms, topo.N())
	// Learning iteration, compile, first compiled iteration.
	learn := func(c runtime.Comm) (*spmv.Session, error) {
		s, err := spmv.NewSession(c, in.a, part, pat, opt)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Multiply(in.xs[0]); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	err = runtime.Run(w.comms, func(c runtime.Comm) error {
		s, err := learn(c)
		w.sessions[c.Rank()] = s
		return err
	})
	if err != nil {
		closeFn()
		return nil, err
	}
	st.learn = lap(&t)
	if w.sets, err = pat.SendSets(); err != nil {
		closeFn()
		return nil, err
	}

	ys := make([][]float64, sp.K)
	w.op = func(r, chunk int) error {
		y, err := w.sessions[r].Multiply(in.xs[chunk%len(in.xs)])
		ys[r] = y
		return err
	}
	w.check = func(r, chunk int) error {
		return checkRows(ys[r], in.refs[chunk%len(in.refs)], w.sessions[r].OwnedRows(), relTol)
	}
	w.selfTime = func(r int, cc *cannedComm, n int) (time.Duration, error) {
		s, err := learn(cc)
		if err != nil {
			return 0, err
		}
		before := s.Timings().Exchange
		for i := 0; i < n; i++ {
			if _, err := s.Multiply(in.xs[0]); err != nil {
				return 0, err
			}
		}
		return (s.Timings().Exchange - before) / time.Duration(n), nil
	}
	return w, nil
}

// ---- cg-udp ---------------------------------------------------------------

type cgInstance struct {
	sp   spec
	a    *sparse.CSR // symmetric positive definite
	b    []float64
	xref []float64 // iterative.SerialCG
}

func genCG(sp spec, seed int64) (*cgInstance, error) {
	base, err := genMatrix(sp, seed)
	if err != nil {
		return nil, err
	}
	a, err := sparse.DiagonallyDominant(base, 2)
	if err != nil {
		return nil, err
	}
	in := &cgInstance{sp: sp, a: a, b: normalVector(rand.New(rand.NewSource(seed)), a.Rows)}
	in.xref, _, err = iterative.SerialCG(a, in.b, 0, 1e-10)
	return in, err
}

func (in *cgInstance) setup(wrap wrapFunc, st *setupTimes) (*world, error) {
	sp := in.sp
	part, pat, topo, comms, closeFn, err := matrixSetup(sp, in.a, st)
	if err != nil {
		return nil, err
	}
	w := &world{closeFn: closeFn, topo: topo, comms: wrap(comms, topo.N())}
	if w.sets, err = pat.SendSets(); err != nil {
		closeFn()
		return nil, err
	}
	owned := part.PartRows()
	opt := iterative.CGOptions{Tol: 1e-10, Comm: spmv.Options{Method: spmv.STFW, Topo: topo}}
	res := make([]*iterative.CGResult, sp.K)
	// iterative.CG builds its session inside the solve, so learning and
	// compile are part of every op and there is nothing to warm here.
	w.op = func(r, _ int) error {
		var err error
		res[r], err = iterative.CG(w.comms[r], in.a, part, pat, in.b, opt)
		return err
	}
	w.lastCG = func() *iterative.CGResult { return res[0] }
	w.check = func(r, _ int) error {
		if !res[r].Converged {
			return fmt.Errorf("not converged after %d iterations, residual %g", res[r].Iters, res[r].Residual)
		}
		return checkRows(res[r].X, in.xref, owned[r], cgTol)
	}
	return w, nil
}

// ---- churn-chan -----------------------------------------------------------

type pair struct{ src, dst int }

type churnInstance struct {
	sp      spec
	words   map[pair]int // payload words per pair, full pattern
	toggles []pair       // pairs each patch round removes or re-adds
	x       [][]float64  // per rank source vector
}

func genChurn(sp spec, seed int64) *churnInstance {
	rng := rand.New(rand.NewSource(seed))
	in := &churnInstance{sp: sp, words: map[pair]int{}}
	for src := 0; src < sp.K; src++ {
		for l := 0; l < churnDests; l++ {
			dst := rng.Intn(sp.K)
			if dst != src {
				in.words[pair{src, dst}] = churnMinWords + rng.Intn(churnMaxWords-churnMinWords+1)
			}
		}
		in.x = append(in.x, normalVector(rng, churnXLen))
	}
	all := in.sortedPairs()
	n := max(1, int(float64(len(all))*churnFrac))
	for _, i := range rng.Perm(len(all))[:n] {
		in.toggles = append(in.toggles, all[i])
	}
	return in
}

func (in *churnInstance) sortedPairs() []pair {
	all := make([]pair, 0, len(in.words))
	for pr := range in.words {
		all = append(all, pr)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].src != all[j].src {
			return all[i].src < all[j].src
		}
		return all[i].dst < all[j].dst
	})
	return all
}

// gatherIdx is which x entries src ships to dst.
func gatherIdx(pr pair, words int) []int32 {
	idx := make([]int32, words)
	for i := range idx {
		idx[i] = int32((pr.src*29 + pr.dst*13 + i*7) % churnXLen)
	}
	return idx
}

// churnPhase is one of the two patterns the workload alternates between:
// phase 0 the full pattern, phase 1 the pattern without the toggled pairs.
type churnPhase struct {
	gather []map[int][]int32 // per rank: dst -> x indices
	halo   [][]float64       // per rank: the reference delivery
}

func (in *churnInstance) phase(skip map[pair]bool) churnPhase {
	K := in.sp.K
	ph := churnPhase{gather: make([]map[int][]int32, K), halo: make([][]float64, K)}
	for r := range ph.gather {
		ph.gather[r] = map[int][]int32{}
	}
	// Replay.Run delivers one block per source, sorted by source rank;
	// sortedPairs is (src, dst) ascending, so appending keeps that order.
	for _, pr := range in.sortedPairs() {
		if skip[pr] {
			continue
		}
		idx := gatherIdx(pr, in.words[pr])
		ph.gather[pr.src][pr.dst] = idx
		for _, g := range idx {
			ph.halo[pr.dst] = append(ph.halo[pr.dst], in.x[pr.src][g])
		}
	}
	return ph
}

// churnState is what the churn ops keep per rank, plus the world-level
// timers the layer metrics read. Each rank touches only its own entries.
type churnState struct {
	pers   []*core.Persistent
	reps   []*core.Replay
	halo   [][]float64
	rounds []int // patch rounds done
	seen   []int // phase of the last replay, for the check
	// Summed over the window, per rank.
	replayNs, discoverNs, patchNs, lowerNs []int64
}

func (in *churnInstance) setup(wrap wrapFunc, st *setupTimes) (*world, error) {
	sp := in.sp
	K := sp.K
	topo, err := vpt.New(sp.dims...)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	comms, closeFn, err := openWorld(sp.transport, K, nil)
	if err != nil {
		return nil, err
	}
	st.world = lap(&t)

	skip := map[pair]bool{}
	for _, pr := range in.toggles {
		skip[pr] = true
	}
	phases := [2]churnPhase{in.phase(nil), in.phase(skip)}
	// deltas[ph] moves a rank from phase 1-ph to phase ph.
	var deltas [2][]dynamic.Delta
	deltas[0], deltas[1] = make([]dynamic.Delta, K), make([]dynamic.Delta, K)
	for _, pr := range in.toggles {
		deltas[0][pr.src].Add = append(deltas[0][pr.src].Add, dynamic.Announce{Dst: pr.dst, Size: 8 * in.words[pr]})
		deltas[1][pr.src].Remove = append(deltas[1][pr.src].Remove, pr.dst)
	}
	payloads := func(r int) map[int][]byte {
		m := map[int][]byte{}
		for dst, idx := range phases[0].gather[r] {
			m[dst] = make([]byte, 8*len(idx))
		}
		return m
	}

	cs := &churnState{
		pers: make([]*core.Persistent, K), reps: make([]*core.Replay, K),
		halo: make([][]float64, K), rounds: make([]int, K), seen: make([]int, K),
		replayNs: make([]int64, K), discoverNs: make([]int64, K), patchNs: make([]int64, K), lowerNs: make([]int64, K),
	}
	w := &world{closeFn: closeFn, topo: topo, comms: wrap(comms, topo.N()), churn: cs}
	w.sets = core.NewSendSets(K)
	for pr, n := range in.words {
		w.sets.Add(pr.src, pr.dst, int64(n))
	}
	if err := w.sets.Normalize(); err != nil {
		closeFn()
		return nil, err
	}

	learn := func(c runtime.Comm) (*core.Persistent, *core.Replay, error) {
		r := c.Rank()
		p, _, err := core.NewPersistent(c, topo, payloads(r))
		if err != nil {
			return nil, nil, err
		}
		rep, err := p.Compile(churnXLen, phases[0].gather[r])
		return p, rep, err
	}
	replay := func(r int) error {
		rep := cs.reps[r]
		return rep.Run(w.comms[r], in.x[r], cs.halo[r][:rep.HaloWords()])
	}
	// round patches rank r into the other phase: remove the toggled pairs,
	// or re-add them.
	round := func(r int) error {
		ph := 1 - cs.rounds[r]%2
		t0 := time.Now()
		pd, err := dynamic.Discover(w.comms[r], topo, deltas[ph][r])
		if err != nil {
			return err
		}
		t1 := time.Now()
		stats, err := cs.pers[r].Patch(pd)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if err := cs.pers[r].PatchCompiled(cs.reps[r], churnXLen, phases[ph].gather[r], stats); err != nil {
			return err
		}
		cs.discoverNs[r] += int64(t1.Sub(t0))
		cs.patchNs[r] += int64(t2.Sub(t1))
		cs.lowerNs[r] += int64(time.Since(t2))
		cs.rounds[r]++
		return nil
	}
	// Learn, compile, replay once, then warm one remove + re-add cycle.
	err = runtime.Run(w.comms, func(c runtime.Comm) error {
		r := c.Rank()
		var err error
		if cs.pers[r], cs.reps[r], err = learn(c); err != nil {
			return err
		}
		cs.halo[r] = make([]float64, cs.reps[r].HaloWords())
		for i := 0; i < 2; i++ {
			if err := replay(r); err != nil {
				return err
			}
			if err := round(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		closeFn()
		return nil, err
	}
	st.learn = lap(&t)

	w.op = func(r, _ int) error {
		t0 := time.Now()
		for i := 0; i < churnReplays; i++ {
			if err := replay(r); err != nil {
				return err
			}
		}
		cs.replayNs[r] += int64(time.Since(t0))
		cs.seen[r] = cs.rounds[r] % 2
		return round(r)
	}
	w.check = func(r, _ int) error {
		ref := phases[cs.seen[r]].halo[r]
		got := cs.halo[r][:len(ref)]
		for i := range ref {
			if got[i] != ref[i] {
				return fmt.Errorf("halo word %d: got %g, reference %g", i, got[i], ref[i])
			}
		}
		return nil
	}
	w.selfTime = func(r int, cc *cannedComm, n int) (time.Duration, error) {
		_, rep, err := learn(cc)
		if err != nil {
			return 0, err
		}
		halo := make([]float64, rep.HaloWords())
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := rep.Run(cc, in.x[r], halo); err != nil {
				return 0, err
			}
		}
		return time.Since(t0) / time.Duration(n), nil
	}
	w.relearn = func(r int) error {
		_, _, err := learn(w.comms[r])
		return err
	}
	return w, nil
}

// ---- replay-hier ----------------------------------------------------------

type replayInstance struct {
	sp       spec
	payloads []map[int][]byte
	sets     *core.SendSets
	sources  []int // sources[r] = how many ranks send to r
}

func genReplay(sp spec, seed int64) (*replayInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &replayInstance{sp: sp, sets: core.NewSendSets(sp.K), sources: make([]int, sp.K)}
	for src := 0; src < sp.K; src++ {
		m := map[int][]byte{}
		for len(m) < min(replayDests, sp.K-1) {
			dst := rng.Intn(sp.K)
			if _, dup := m[dst]; dup || dst == src {
				continue
			}
			p := make([]byte, replayBytes)
			rng.Read(p)
			m[dst] = p
			in.sets.Add(src, dst, replayBytes/8)
			in.sources[dst]++
		}
		in.payloads = append(in.payloads, m)
	}
	return in, in.sets.Normalize()
}

func (in *replayInstance) setup(wrap wrapFunc, st *setupTimes) (*world, error) {
	sp := in.sp
	K := sp.K
	t := time.Now()
	// A two-node machine: the XC40 profile with half the world per node.
	m, err := netsim.CrayXC40(K)
	if err != nil {
		return nil, err
	}
	m.RanksPerNode = K / 2
	if m.Topo, err = netsim.FitDragonfly(2); err != nil {
		return nil, err
	}
	base, err := vpt.NewBalanced(K, 2)
	if err != nil {
		return nil, err
	}
	plan, nodeOf, err := hier.Plan(m, in.sets, base, mapping.DefaultOptions())
	if err != nil {
		return nil, err
	}
	topo, err := plan.Topology()
	if err != nil {
		return nil, err
	}
	st.plandims = lap(&t)
	comms, closeFn, err := openWorld(sp.transport, K, nodeOf)
	if err != nil {
		return nil, err
	}
	st.world = lap(&t)

	w := &world{closeFn: closeFn, topo: topo, sets: in.sets, comms: wrap(comms, topo.N())}
	pers := make([]*core.Persistent, K)
	got := make([]*core.Delivered, K)
	learn := func(c runtime.Comm) (*core.Persistent, error) {
		p, _, err := core.NewPersistent(c, topo, in.payloads[c.Rank()])
		if err != nil {
			return nil, err
		}
		_, err = p.Run(c, in.payloads[c.Rank()])
		return p, err
	}
	err = runtime.Run(w.comms, func(c runtime.Comm) error {
		var err error
		pers[c.Rank()], err = learn(c)
		return err
	})
	if err != nil {
		closeFn()
		return nil, err
	}
	st.learn = lap(&t)

	w.op = func(r, _ int) error {
		var err error
		got[r], err = pers[r].Run(w.comms[r], in.payloads[r])
		return err
	}
	w.check = func(r, _ int) error {
		if len(got[r].Subs) != in.sources[r] {
			return fmt.Errorf("%d payloads delivered, reference %d", len(got[r].Subs), in.sources[r])
		}
		for _, s := range got[r].Subs {
			if s.Dst != r || s.Src < 0 || s.Src >= K || !bytes.Equal(s.Data, in.payloads[s.Src][r]) {
				return fmt.Errorf("payload %d -> %d differs from what was sent", s.Src, s.Dst)
			}
		}
		return nil
	}
	w.selfTime = func(r int, cc *cannedComm, n int) (time.Duration, error) {
		p, err := learn(cc)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := p.Run(cc, in.payloads[r]); err != nil {
				return 0, err
			}
		}
		return time.Since(t0) / time.Duration(n), nil
	}
	return w, nil
}
