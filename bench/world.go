package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"stfw/internal/core"
	"stfw/internal/iterative"
	"stfw/internal/runtime"
	"stfw/internal/spmv"
	"stfw/internal/telemetry"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

// openWorld calls the transport's public constructor. nodeOf is used by the
// hier composite only. All wire traffic crosses the host loopback.
func openWorld(transport string, K int, nodeOf func(int) int) ([]runtime.Comm, func(), error) {
	switch transport {
	case "chanpt":
		w, err := chanpt.NewWorld(K, K)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	case "udpnet":
		w, err := udpnet.NewWorld(K)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	case "tcpnet":
		w, err := tcpnet.NewWorld(K)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	case "hier":
		inner, err := chanpt.NewWorld(K, K)
		if err != nil {
			return nil, nil, err
		}
		outer, err := udpnet.NewWorld(K)
		if err != nil {
			return nil, nil, err
		}
		closeBoth := func() {
			outer.Close()
			inner.Close()
		}
		w, err := hier.New(hier.Config{Inner: inner.Comms(), Outer: outer.Comms(), NodeOf: nodeOf})
		if err != nil {
			closeBoth()
			return nil, nil, err
		}
		return w.Comms(), closeBoth, nil
	}
	return nil, nil, fmt.Errorf("unknown transport %q", transport)
}

// setupTimes is the set-up path split by layer, in seconds.
type setupTimes struct {
	greedy, pattern, plandims, world, learn float64
}

// lap returns the seconds since *t and moves *t to now.
func lap(t *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*t).Seconds()
	*t = now
	return d
}

// wrapFunc decorates a freshly constructed world's endpoints before the
// program sees them; stages is the VPT dimension count, for tag -> stage.
type wrapFunc func(comms []runtime.Comm, stages int) []runtime.Comm

func noWrap(comms []runtime.Comm, _ int) []runtime.Comm { return comms }

// world is a program instance that finished its set-up: K ranks, each with a
// compiled session (or persistent/replay) bound to its endpoint.
type world struct {
	comms []runtime.Comm
	// op runs one operation on rank r; chunk selects the chunk's inputs.
	op func(r, chunk int) error
	// check compares rank r's latest output with the serial reference of
	// the chunk that produced it.
	check   func(r, chunk int) error
	closeFn func()
	abort   sync.Once

	// What the layer probes read; nil where a workload has none.
	topo     *vpt.Topology
	sets     *core.SendSets
	sessions []*spmv.Session
	reg      *telemetry.Registry
	churn    *churnState
	lastCG   func() *iterative.CGResult // rank 0's latest solve
	// selfTime runs the rank's engine against canned frames (see canned.go)
	// and returns its mean time per op.
	selfTime func(r int, cc *cannedComm, n int) (time.Duration, error)
	// relearn runs one from-scratch learn + compile on rank r.
	relearn func(r int) error
}

func (w *world) close() { w.abort.Do(w.closeFn) }

// window is one measured interval. The box this runs on has noisy
// neighbours whose episodes last seconds, so the headline numbers are medians
// over the chunks' own statistics: an episode shorter than half the window
// moves none of them, where it would move a pooled p90 or a mean rate.
type window struct {
	ops    int           // per rank
	failed int           // ops whose chunk failed its check
	wall   time.Duration // measured time only, checks excluded
	lat    [][]int64     // per rank, ns per op
	// Per chunk: ops per second, and the p50 and p90 in ms of the chunk's
	// op times pooled over the ranks.
	rate, p50, p90 []float64
}

// runChunk lets every rank loop n times over the op with no hand-shake
// between iterations, as a solver does, and appends each op's duration to the
// rank's samples. A failing rank tears the world down so the others, blocked
// in receives that take no deadline, return too.
func (w *world) runChunk(chunk, n int, lat [][]int64) (time.Duration, error) {
	K := len(w.comms)
	errs := make([]error, K)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < K; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < n; i++ {
				t0 := time.Now()
				if err := w.op(r, chunk); err != nil {
					errs[r] = err
					w.close()
					return
				}
				lat[r] = append(lat[r], int64(time.Since(t0)))
			}
		}(r)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	for r, err := range errs {
		if err != nil {
			return wall, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return wall, nil
}

// measure runs chunks until `seconds` of measured time have passed, checking
// every rank's output after each chunk. A returned error means the world is
// broken; a failed check only counts.
func (w *world) measure(seconds float64, chunkOps int) (*window, error) {
	K := len(w.comms)
	win := &window{lat: make([][]int64, K)}
	for chunk := 0; win.wall.Seconds() < seconds; chunk++ {
		for r := range win.lat {
			win.lat[r] = slices.Grow(win.lat[r], chunkOps)
		}
		d, err := w.runChunk(chunk, chunkOps, win.lat)
		win.wall += d
		win.ops += chunkOps
		if err != nil {
			win.failed += chunkOps
			return win, err
		}
		for r := 0; r < K; r++ {
			if err := w.check(r, chunk); err != nil {
				logf("check failed: chunk %d rank %d: %v", chunk, r, err)
				win.failed += chunkOps
				break
			}
		}
		p := percentiles(win.lat, chunkOps, 0.50, 0.90)
		win.rate = append(win.rate, float64(chunkOps)/d.Seconds())
		win.p50 = append(win.p50, p[0])
		win.p90 = append(win.p90, p[1])
	}
	return win, nil
}

// percentiles pools every rank's last n samples and returns the p-quantiles
// in ms.
func percentiles(lat [][]int64, n int, ps ...float64) []float64 {
	var pooled []int64
	for _, l := range lat {
		pooled = append(pooled, l[len(l)-n:]...)
	}
	slices.Sort(pooled)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(pooled[int(p*float64(len(pooled)-1))]) / 1e6
	}
	return out
}

func (win *window) samples() int {
	n := 0
	for _, l := range win.lat {
		n += len(l)
	}
	return n
}
