// Command spmvrun executes a real distributed SpMV — the paper's evaluation
// kernel — inside this process, with one goroutine per rank, over the
// channel or TCP transport, using either the direct baseline or the
// store-and-forward scheme, and verifies the result against the serial
// multiply. Every run is one persistent world with one compiled session
// per rank; -telemetry and -trace-out give the per-stage timelines.
//
// Usage:
//
//	spmvrun -matrix gupta2 -k 64 -dim 3 -scale 16 -transport chan
//	spmvrun -matrix sparsine -k 16 -method bl -transport tcp
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"stfw/internal/core"
	"stfw/internal/metrics"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
	"stfw/internal/telemetry"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/vpt"
)

// config carries every CLI knob of one spmvrun invocation.
type config struct {
	matrix     string
	k          int
	dim        int
	scale      int
	method     string
	transport  string
	iters      int
	telemetry  bool // live counters + span timelines (internal/telemetry)
	traceOut   string
	debugAddr  string
	cpuProfile string
	memProfile string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.matrix, "matrix", "sparsine", "catalog matrix name")
	flag.IntVar(&cfg.k, "k", 64, "number of ranks (power of two)")
	flag.IntVar(&cfg.dim, "dim", 3, "VPT dimension for STFW")
	flag.IntVar(&cfg.scale, "scale", 16, "matrix shrink factor")
	flag.StringVar(&cfg.method, "method", "stfw", "exchange method: bl or stfw")
	flag.StringVar(&cfg.transport, "transport", "chan", "transport: chan or tcp")
	flag.IntVar(&cfg.iters, "iters", 3, "SpMV iterations")
	flag.BoolVar(&cfg.telemetry, "telemetry", false, "collect live per-rank stage timelines and hot-path counters")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write a Chrome trace-event JSON of the run (implies -telemetry; open in ui.perfetto.dev)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve /debug (expvar, pprof, telemetry) on this address, e.g. 127.0.0.1:8642")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "spmvrun: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	matrix, K, dim, scale := cfg.matrix, cfg.k, cfg.dim, cfg.scale
	method, transport, iters := cfg.method, cfg.transport, cfg.iters

	stopProfiles, err := telemetry.StartProfiles(cfg.cpuProfile, cfg.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "spmvrun: %v\n", err)
		}
	}()

	fmt.Printf("generating %s (scale %d)...\n", matrix, scale)
	a, err := sparse.CatalogMatrix(matrix, scale)
	if err != nil {
		return err
	}
	st := sparse.ComputeStats(a)
	fmt.Printf("  %dx%d, %d nonzeros, max degree %d, cv %.2f\n",
		st.Rows, st.Cols, st.NNZ, st.MaxDegree, st.CV)

	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		return err
	}
	pat, err := spmv.BuildPattern(a, part)
	if err != nil {
		return err
	}
	sends, err := pat.SendSets()
	if err != nil {
		return err
	}

	opt := spmv.Options{Method: spmv.BL}
	var plan *core.Plan
	stages := 1
	if method == "stfw" {
		tp, err := vpt.NewBalanced(K, dim)
		if err != nil {
			return err
		}
		opt = spmv.Options{Method: spmv.STFW, Topo: tp}
		stages = tp.N()
		fmt.Printf("topology: %s, message bound %d (BL bound %d)\n",
			tp, core.MaxMessageBound(tp), K-1)
		plan, err = core.BuildPlan(tp, sends)
		if err != nil {
			return err
		}
	} else {
		plan, err = core.BuildDirectPlan(sends)
		if err != nil {
			return err
		}
	}

	// Live telemetry: one collector per rank; -trace-out and -debug-addr
	// imply collection.
	var reg *telemetry.Registry
	if cfg.telemetry || cfg.traceOut != "" || cfg.debugAddr != "" {
		reg, err = telemetry.New(telemetry.Config{Ranks: K, Stages: stages})
		if err != nil {
			return err
		}
		opt.Telemetry = reg
	}
	if cfg.debugAddr != "" {
		ds, err := reg.ServeDebug(cfg.debugAddr)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Printf("debug endpoint: http://%s/debug/\n", ds.Addr)
	}
	sum, err := metrics.Summarize(method, plan, sends)
	if err != nil {
		return err
	}
	fmt.Printf("plan: mmax %.0f, mavg %.1f, vavg %.0f words, buffer %.1f KB\n",
		sum.MMax, sum.MAvg, sum.VAvg, sum.BufferBytes/1024)

	rng := rand.New(rand.NewSource(42))
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := a.MulVec(nil, x)
	if err != nil {
		return err
	}

	runWorld := func(fn runtime.RankFunc) error {
		var comms []runtime.Comm
		switch transport {
		case "chan":
			w, err := chanpt.NewWorld(K, K)
			if err != nil {
				return err
			}
			comms = w.Comms()
		case "tcp":
			w, err := tcpnet.NewWorld(K)
			if err != nil {
				return err
			}
			defer w.Close()
			comms = w.Comms()
		default:
			return fmt.Errorf("unknown transport %q", transport)
		}
		reg.WrapComms(comms, func(tag int) (int, bool) {
			return core.TagStage(tag, stages)
		})
		return runtime.Run(comms, fn)
	}

	// One persistent world, one compiled session per rank, all iterations
	// inside a single collective run with a per-iteration phase breakdown.
	if err := runSessions(runWorld, a, part, pat, x, want, opt, transport, K, iters); err != nil {
		return err
	}
	fmt.Println("verified: parallel result matches serial multiply")
	return finishTelemetry(reg, cfg.traceOut)
}

// finishTelemetry reports the collected run: the counter totals and
// histograms on stdout, and the Perfetto trace when a path was given.
// No-op when telemetry was off.
func finishTelemetry(reg *telemetry.Registry, traceOut string) error {
	if reg == nil {
		return nil
	}
	s := reg.Snapshot()
	tot := s.Totals()
	fmt.Printf("\ntelemetry: %d frames / %d bytes sent, %d submessages forwarded (%d bytes)\n",
		tot.Sends, tot.SendBytes, tot.Forwards, tot.FwdBytes)
	reg.WriteHistograms(os.Stdout)
	if traceOut != "" {
		if err := reg.WriteTraceFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (open in ui.perfetto.dev)\n", traceOut)
	}
	return nil
}

// runSessions executes all iterations through persistent per-rank sessions
// inside one world run, reporting wall clock and the per-phase breakdown
// (gather / exchange / kernel / reduce) every iteration. Phase maxima are
// taken across ranks — the slowest rank is the iteration's critical path.
func runSessions(runWorld func(runtime.RankFunc) error, a *sparse.CSR, part *partition.Partition,
	pat *spmv.Pattern, x, want []float64, opt spmv.Options, transport string, K, iters int) error {
	ys := make([][]float64, K)
	phases := make([]spmv.PhaseTimings, K)
	return runWorld(func(c runtime.Comm) error {
		me := c.Rank()
		sess, err := spmv.NewSession(c, a, part, pat, opt)
		if err != nil {
			return err
		}
		var prev spmv.PhaseTimings
		for it := 0; it < iters; it++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			start := time.Now()
			y, err := sess.Multiply(x)
			if err != nil {
				return fmt.Errorf("iteration %d rank %d: %w", it, me, err)
			}
			ys[me] = y
			tm := sess.Timings()
			phases[me] = spmv.PhaseTimings{
				Gather:   tm.Gather - prev.Gather,
				Exchange: tm.Exchange - prev.Exchange,
				Kernel:   tm.Kernel - prev.Kernel,
			}
			prev = tm
			if err := c.Barrier(); err != nil {
				return err
			}
			if me == 0 {
				wall := time.Since(start)
				rs := time.Now()
				got, err := spmv.Reduce(part, ys)
				if err != nil {
					return err
				}
				reduce := time.Since(rs)
				var maxErr float64
				for i := range want {
					if e := math.Abs(got[i] - want[i]); e > maxErr {
						maxErr = e
					}
				}
				var agg spmv.PhaseTimings
				for _, p := range phases {
					if p.Gather > agg.Gather {
						agg.Gather = p.Gather
					}
					if p.Exchange > agg.Exchange {
						agg.Exchange = p.Exchange
					}
					if p.Kernel > agg.Kernel {
						agg.Kernel = p.Kernel
					}
				}
				fmt.Printf("iter %d: %v wall (%s transport) | max over ranks: gather %v, exchange %v, kernel %v | reduce %v | max |err| = %.2e\n",
					it, wall.Round(time.Microsecond), transport,
					agg.Gather.Round(time.Microsecond), agg.Exchange.Round(time.Microsecond),
					agg.Kernel.Round(time.Microsecond), reduce.Round(time.Microsecond), maxErr)
				if maxErr > 1e-9 {
					return fmt.Errorf("verification FAILED at iteration %d: max error %g", it, maxErr)
				}
			}
			// Hold every rank until rank 0 has consumed ys: the compiled
			// sessions overwrite their result buffers on the next multiply.
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}
