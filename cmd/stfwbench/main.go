// Command stfwbench regenerates the tables and figures of the paper's
// evaluation (Section 6). Each experiment prints the same rows/series the
// paper reports, computed from the synthetic catalog analogs, the greedy
// partitioner, the exact store-and-forward router, and the machine cost
// models (see DESIGN.md for the substitutions).
//
// Usage:
//
//	stfwbench -exp table1|fig1|table2|fig6|fig7|fig8|fig9|table3|fig10|partitioners|skew|mapping|stencil|netstat|all [-scale N]
//
// -scale shrinks the catalog matrices (sparse.ScaleParams semantics);
// scale 1 is full size. The default of 8 preserves every regime the paper
// studies while keeping the full sweep fast on a laptop. -debug-addr
// serves /debug (expvar, pprof) while the sweep executes;
// -cpuprofile/-memprofile write runtime/pprof profiles of the whole
// invocation. Live measurements of the runtime itself are bench/'s job
// (bash bench/run.sh -workload W -quick); "all" runs only the model
// experiments and opens no socket.
//
// The "netstat" experiment is the one that runs a real world: the learned-
// replay exchange over udpnet, reporting the per-link wire stats (smoothed
// ack RTTs, resends, SACK repairs, ack suppression), the per-stage
// straggler table, and a measured-vs-model divergence table against the
// netsim cost model calibrated from the measured RTTs. With -procs P the
// world spans P OS processes whose snapshots are merged into one fleet
// report; -trace-out writes the merged Perfetto trace and -debug-addr then
// serves the merged /debug/fleet view.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"stfw/internal/experiments"
	"stfw/internal/telemetry"
)

// benchConfig is the CLI configuration: the experiment parameters plus the
// observability knobs.
type benchConfig struct {
	experiments.Config
	traceOut   string
	debugAddr  string
	cpuProfile string
	memProfile string
	procs      int
}

func main() {
	// A re-exec'd slice of the -procs multi-process world skips the CLI
	// entirely; its configuration arrives via environment and inherited
	// file descriptors (see udp.go).
	if os.Getenv(udpChildEnv) != "" {
		if err := runUDPChild(); err != nil {
			fmt.Fprintf(os.Stderr, "stfwbench (udp child): %v\n", err)
			os.Exit(1)
		}
		return
	}

	var cfg benchConfig
	exp := flag.String("exp", "all", "experiment to run: table1, fig1, table2, fig6, fig7, fig8, fig9, table3, fig10, partitioners, skew, mapping, stencil, netstat, all")
	verify := flag.Bool("verify", false, "run the whole-world schedule verifier over the conformance topologies and exit")
	flag.IntVar(&cfg.Scale, "scale", 8, "matrix shrink factor (1 = full-size structures)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -exp netstat: write a Chrome trace-event JSON of the run (open in ui.perfetto.dev)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve /debug (expvar, pprof; with -exp netstat the merged fleet view) on this address")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.IntVar(&cfg.procs, "procs", 1, "with -exp netstat: split the udpnet world across this many OS processes (loopback multi-process mode)")
	flag.Parse()

	if *verify {
		if err := runVerify(); err != nil {
			fmt.Fprintf(os.Stderr, "stfwbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if err := run(cfg, *exp); err != nil {
		fmt.Fprintf(os.Stderr, "stfwbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg benchConfig, exp string) error {
	stopProfiles, err := telemetry.StartProfiles(cfg.cpuProfile, cfg.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "stfwbench: %v\n", err)
		}
	}()

	runners := map[string]func(experiments.Config) error{
		"table1":       printed(experiments.Table1, experiments.RenderTable1),
		"fig1":         printed(experiments.Figure1, experiments.RenderFigure1),
		"table2":       printed(experiments.Table2, experiments.RenderTable2),
		"fig6":         printed(experiments.Figure6, experiments.RenderFigure6),
		"fig7":         printed(experiments.Figure7, experiments.RenderFigure7),
		"fig8":         printed(experiments.Figure8, experiments.RenderFigure8),
		"fig9":         printed(experiments.Figure9, experiments.RenderFigure9),
		"table3":       printed(experiments.Table3, experiments.RenderTable3),
		"fig10":        printed(experiments.Figure10, experiments.RenderFigure10),
		"partitioners": runPartitioners,
		"skew":         runSkew,
		"mapping":      runMapping,
		"stencil":      runStencil,
		"netstat":      func(experiments.Config) error { return runNetstat(cfg) },
	}
	order := []string{"table1", "fig1", "table2", "fig6", "fig7", "fig8", "fig9", "table3", "fig10",
		"partitioners", "skew", "mapping", "stencil"}
	if cfg.debugAddr != "" && exp != "netstat" {
		// The model sweeps have no registry; a nil one still serves pprof
		// and expvar. netstat serves its own fleet-level endpoint after
		// the merge.
		ds, err := (*telemetry.Registry)(nil).ServeDebug(cfg.debugAddr)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Printf("debug endpoint: http://%s/debug/\n", ds.Addr)
	}
	if exp != "all" {
		r, ok := runners[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		return timed(exp, cfg.Config, r)
	}
	for _, name := range order {
		if err := timed(name, cfg.Config, runners[name]); err != nil {
			return err
		}
	}
	return nil
}

func timed(name string, cfg experiments.Config, f func(experiments.Config) error) error {
	start := time.Now()
	if err := f(cfg); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("\n[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

// printed adapts an experiment's compute/render pair to a runner.
func printed[T any](compute func(experiments.Config) (T, error), render func(io.Writer, T)) func(experiments.Config) error {
	return func(cfg experiments.Config) error {
		v, err := compute(cfg)
		if err != nil {
			return err
		}
		render(os.Stdout, v)
		return nil
	}
}

func runPartitioners(cfg experiments.Config) error {
	rows, err := experiments.PartitionerAblation(cfg, "GaAsH6", 256)
	if err != nil {
		return err
	}
	experiments.RenderPartitionerAblation(os.Stdout, "GaAsH6", 256, rows)
	return nil
}

func runSkew(cfg experiments.Config) error {
	rows, err := experiments.SkewAblation(cfg, "gupta2", 512, 4)
	if err != nil {
		return err
	}
	experiments.RenderSkewAblation(os.Stdout, "gupta2", 512, 4, rows)
	return nil
}

func runMapping(cfg experiments.Config) error {
	rows, err := experiments.MappingAblation(cfg, "coAuthorsDBLP", 256, 4)
	if err != nil {
		return err
	}
	experiments.RenderMappingAblation(os.Stdout, "coAuthorsDBLP", 256, 4, rows)
	return nil
}

func runStencil(cfg experiments.Config) error {
	rows, err := experiments.StencilControl(256, 128)
	if err != nil {
		return err
	}
	experiments.RenderStencilControl(os.Stdout, 256, rows)
	return nil
}
