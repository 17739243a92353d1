// Command bench is the repository's one benchmark: solver iterations over
// real sockets, seven named workloads, a per-layer ladder. README.md in this
// directory says what each workload and metric is for; BENCHMARK.json at the
// repository root is the contract a driver runs it under.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, result as the last line
//	bench [-runs R] [-quick]                          every workload, both passes, bench/out/result.json
//	bench -compare base.json head.json                verdict per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process; empty runs the whole suite")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 12, "measured time per run")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		quick    = flag.Bool("quick", false, "a tenth of the measured time and one set-up; for a local look, not for comparison")
		runs     = flag.Int("runs", 1, "suite mode: runs per workload, seeds seed..seed+runs-1")
		outDir   = flag.String("out", "bench/out", "where result.json and the trace dumps go")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare base.json head.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload == "":
		if err := runSuite(*seed, *seconds, *runs, *quick, *outDir); err != nil {
			fatal(err)
		}
	default:
		sp, err := findWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		setups := setupCycles
		if *quick {
			*seconds /= 10
			setups = 1
		}
		var res *result
		if *trace == 0 {
			res, err = runEndToEnd(sp, *seed, *seconds, setups)
		} else {
			res, err = runTraced(sp, *seed, *seconds, *outDir)
		}
		if err != nil {
			fatal(err)
		}
		printResult(res)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// printResult prints every metric by name with its unit, then the result as
// one JSON object on the last line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
