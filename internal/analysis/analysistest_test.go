package analysis

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The testdata packages under testdata/<analyzer>/ are analysistest-style
// fixtures: each flagged line carries a
//
//	// want "substring"
//
// comment naming a substring of the expected diagnostic, and clean lines
// carry none. The harness loads the fixture through the same loader the
// multichecker uses (testdata directories are invisible to ./... patterns
// but loadable by explicit import path), runs one analyzer, and requires
// the diagnostics and expectations to match exactly — so every positive
// case is a test that fails without its check, and every negative case is
// a false-positive regression guard.

var wantRe = regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)

type expectation struct {
	file string
	line int
	want string
}

func loadFixture(t *testing.T, name string) (*Package, []expectation) {
	t.Helper()
	pkgs, err := Load("", "stfw/internal/analysis/testdata/"+name)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: loaded %d packages, want 1", name, len(pkgs))
	}
	pkg := pkgs[0]
	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				text, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("fixture %s: bad want comment %q: %v", name, c.Text, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, expectation{file: pos.Filename, line: pos.Line, want: text})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want expectations; positive cases are required", name)
	}
	return pkg, wants
}

func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg, wants := loadFixture(t, name)
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.want) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected a diagnostic containing %q, got none", w.file, w.line, w.want)
		}
	}
}

func TestFramepoolFixture(t *testing.T)  { runFixture(t, Framepool, "framepool") }
func TestLockedsendFixture(t *testing.T) { runFixture(t, Lockedsend, "lockedsend") }
