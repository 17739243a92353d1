// Package analysis is a self-contained miniature of the go/analysis
// framework: typed Analyzer values run over parsed, type-checked packages
// and report position-anchored diagnostics. The store-and-forward exchange
// rests on two code-level rules that no type or runtime test pins down:
// every pooled frame is recycled or handed off on every path (framepool),
// and no rank blocks in a transport call while holding a lock
// (lockedsend). cmd/stfwlint is the multichecker that runs both over the
// tree (see DESIGN.md §9).
//
// The framework is hand-rolled on the standard library (go/ast, go/types,
// and a `go list -export` driver in load.go) rather than on
// golang.org/x/tools/go/analysis so the module stays dependency-free; the
// Analyzer/Pass surface deliberately mirrors the x/tools shape, so the
// analyzers could be ported to a real multichecker by swapping imports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check: a name (the diagnostic suffix), a one-line
// contract, and the function that inspects a package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string
	// Doc states the invariant the analyzer enforces, first line summary.
	Doc string
	// Run inspects one package through the pass and reports findings. A
	// non-nil error aborts the whole run (reserved for internal failures,
	// not findings).
	Run func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work: the package's syntax,
// type information, and the report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg    *Package
	report func(Diagnostic)
}

// Summaries returns the interprocedural function summaries for the package
// under analysis, computing them on first use and sharing them across the
// analyzers of the run (see summary.go).
func (p *Pass) Summaries() *SummarySet {
	if p.pkg.sums == nil {
		p.pkg.sums = computeSummaries(p.pkg)
	}
	return p.pkg.sums
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form the
// multichecker prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Report emits a finding at pos.
func (p *Pass) Report(pos token.Pos, message string) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  message,
	})
}

// Reportf emits a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// All returns every registered analyzer of the suite, in the order the
// multichecker runs them.
func All() []*Analyzer {
	return []*Analyzer{Framepool, Lockedsend}
}
