package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"slices"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. Its JSON form is the last
// line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (res *result) set(name string, v float64, unit string) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (res *result) count(win *window) {
	res.Attempted += win.ops
	res.Failed += win.failed
	res.Correct = res.Failed == 0
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// memInUse is the live heap and the stacks after a collection. HeapAlloc, not
// HeapInuse: the share of its spans the allocator happens to leave half empty
// moves HeapInuse by +-4 % from process to process on a 9 MB heap, and says
// nothing about the program.
func memInUse() float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc+ms.StackInuse) / 1e6
}

// setupCycles is how many complete set-up and tear-down cycles setup_s is
// the median of. A cycle lasts 10-70 ms, so 25 cost under two seconds and
// hold the median's spread near 10 %; 5 left it at 20 %.
const setupCycles = 25

// runEndToEnd is the untraced pass: a free-running window of `seconds` on a
// world set up in the fresh process, then further complete set-up and
// tear-down cycles until there are `setups` of them. The cycles come after
// the window because a process that has run the window sets up ~20 % faster
// than a fresh one (sockets, heap and pools are warm): cycles on both sides
// of the window put the median on the edge between two populations. Each
// cycle starts from a collected heap, so none pays for its predecessor's
// garbage.
func runEndToEnd(sp spec, seed int64, seconds float64, setups int) (*result, error) {
	in, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	cycle := func(use func(w *world) error) error {
		goruntime.GC()
		t := time.Now()
		w, err := in.setup(noWrap, &setupTimes{})
		if err != nil {
			return fmt.Errorf("set-up %d: %w", len(setupS), err)
		}
		built := lap(&t)
		err = use(w)
		t = time.Now()
		w.close()
		setupS = append(setupS, built+lap(&t))
		return err
	}
	var (
		mem float64
		win *window
	)
	err = cycle(func(w *world) error {
		mem = memInUse()
		var err error
		win, err = w.measure(seconds, sp.chunk)
		return err
	})
	if win == nil {
		return nil, err
	}
	if err != nil {
		logf("%s: %v", sp.name, err)
	}
	for err == nil && len(setupS) < setups {
		if err = cycle(func(*world) error { return nil }); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metric{}}
	res.count(win)
	res.set("setup_s", median(setupS), "s")
	res.set("mem_mb", mem, "MB")
	if len(win.rate) > 0 {
		res.set("ops_per_s", median(win.rate), "1/s")
		res.set("op_p50_ms", median(win.p50), "ms")
		res.set("op_p90_ms", median(win.p90), "ms")
	}
	return res, nil
}
