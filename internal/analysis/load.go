package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked target package.
type Package struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	sums *SummarySet // lazily built per-package function summaries
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Name       string
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	DepOnly    bool
	ForTest    string
}

// Load resolves the patterns with the go command and returns the matched
// packages parsed and type-checked from source. Dependencies — standard
// library and intra-module alike — are imported from compiler export data
// (`go list -export` compiles them into the build cache as needed), so a
// load touches the source of only the packages under analysis and works
// fully offline.
//
// Test files are included: each matched package is analyzed as its test
// variant (production + in-package _test.go files type-checked together,
// exactly as `go test` compiles them) and external _test packages become
// roots of their own. The invariants the suite enforces bind test harnesses
// too — a frame dropped on a test error path or a send under a test's lock
// is still a defect.
//
// dir is the directory the patterns are resolved in (the module root or any
// directory inside it); "" means the current directory.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	args := append([]string{"list", "-export", "-deps", "-test",
		"-json=Name,ImportPath,Dir,GoFiles,Standard,Export,DepOnly,ForTest"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var roots []listedPackage
	exports := make(map[string]string)
	hasTestVariant := make(map[string]bool) // plain import path -> a "[pkg.test]" variant was listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Standard || lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		if strings.HasSuffix(lp.ImportPath, ".test") {
			continue // the synthesized test-main package: generated, not ours
		}
		if lp.ForTest != "" && lp.ForTest == lp.ImportPath {
			// "pkg [pkg.test]": the package recompiled with its in-package
			// test files. Its GoFiles are a superset of the plain package's,
			// so the plain root is dropped below.
			hasTestVariant[lp.ForTest] = true
		}
		roots = append(roots, lp)
	}

	// Analyze each package once: when its test variant was listed, the plain
	// root is a strict subset of the same files and would double-report.
	kept := roots[:0]
	for _, lp := range roots {
		if lp.ForTest == "" && hasTestVariant[lp.ImportPath] {
			continue
		}
		kept = append(kept, lp)
	}
	roots = kept
	// Check under-test variants before their external _test packages, so an
	// xtest package's import of the package under test resolves against the
	// export data the variant was compiled into (see lookup below).
	sort.SliceStable(roots, func(i, j int) bool {
		return xtestRank(roots[i]) < xtestRank(roots[j])
	})

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, lp := range roots {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		// Every package gets its own importer instance so the import graph
		// each type-check sees is internally consistent: an external _test
		// package must resolve the package under test to its test-variant
		// export data (the compilation `go test` links against, which may
		// export extra test helpers), while every other consumer sees the
		// plain package. Sharing one cache across both mappings would hand
		// out clashing identities for the same import path.
		forTest := ""
		if lp.ForTest != "" && lp.ForTest != lp.ImportPath {
			forTest = lp.ForTest // xtest: "pkg_test [pkg.test]"
		}
		lookup := func(path string) (io.ReadCloser, error) {
			if path == forTest {
				if f, ok := exports[path+" ["+path+".test]"]; ok {
					return os.Open(f)
				}
			}
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("analysis: no export data for %q", path)
			}
			return os.Open(f)
		}
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
		path := plainImportPath(lp.ImportPath)
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:  path,
			Name:  lp.Name,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

// xtestRank orders roots so under-test variants precede external _test
// packages (plain packages sort with the variants; their order among
// themselves is preserved).
func xtestRank(lp listedPackage) int {
	if lp.ForTest != "" && lp.ForTest != lp.ImportPath {
		return 1
	}
	return 0
}

// plainImportPath strips go list's test-variant suffix:
// "pkg [pkg.test]" -> "pkg". Diagnostics use the plain path; which variant
// produced a finding is visible from the file name.
func plainImportPath(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// Run executes the analyzers over the loaded packages and returns their
// diagnostics, sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				pkg:       pkg,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
