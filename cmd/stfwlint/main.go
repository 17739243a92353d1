// Command stfwlint is the multichecker for the repo's invariant analyzers
// (internal/analysis): framepool (every pooled frame is recycled or handed
// off on every path) and lockedsend (no blocking transport call under a
// held mutex). It loads the packages named by its arguments (go list
// patterns; default ./...), runs both analyzers, prints the diagnostics in
// file:line:col form, and exits 1 if there were any.
//
// Test files are included — the invariants bind test harnesses too — with
// each package analyzed exactly as `go test` compiles it (in-package test
// files together with the production sources, external _test packages on
// their own).
//
// Usage:
//
//	go run ./cmd/stfwlint ./...
//	go run ./cmd/stfwlint -list
package main

import (
	"flag"
	"fmt"
	"os"

	"stfw/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: stfwlint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stfwlint:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stfwlint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
