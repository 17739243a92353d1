package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzersCatchRealMutations holds each kept analyzer to a seeded bug
// in the repo's real code, not a fixture written for it. It copies the
// production sources of a few packages into a throwaway module
// (stfw/mutant, with `replace stfw => <repo root>` as bench/go.mod does, so
// the copies still import stfw/internal/... and the load stays offline),
// requires the unmutated copy to lint clean, then applies one string
// mutation at a time and requires exactly the one expected finding.
func TestAnalyzersCatchRealMutations(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("GOWORK", "off")
	t.Setenv("GOPROXY", "off")
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"),
		"module stfw/mutant\n\ngo 1.22\n\nrequire stfw v0.0.0\n\nreplace stfw => "+root+"\n")
	pkgs := map[string]string{ // copy -> real package directory
		"collectives": "internal/collectives",
		"hier":        "internal/transport/hier",
	}
	for name, src := range pkgs {
		copyPackage(t, filepath.Join(root, src), filepath.Join(dir, name))
	}

	if diags := lintModule(t, dir, "./..."); len(diags) != 0 {
		t.Fatalf("unmutated copies are not clean:\n%s", joinDiags(diags))
	}

	cases := []struct {
		name     string
		file     string // inside the module
		from, to string
		analyzer string
		want     string
	}{
		{
			name:     "framepool/sendWords_early_return",
			file:     "collectives/collectives.go",
			from:     "\tbuf := msg.GetFrameLen(n)\n",
			to:       "\tbuf := msg.GetFrameLen(n)\n\tif n == 0 {\n\t\treturn nil\n\t}\n",
			analyzer: "framepool",
			want:     "pooled frame buf leaks on this return path",
		},
		{
			name:     "lockedsend/hier_Recv_under_lock",
			file:     "hier/recv.go",
			from:     "\t\t\tc.mu.Unlock()\n\t\t\treturn sub.Recv(from, tag)\n",
			to:       "\t\t\tpayload, err := sub.Recv(from, tag)\n\t\t\tc.mu.Unlock()\n\t\t\treturn payload, err\n",
			analyzer: "lockedsend",
			want:     "Comm.Recv while holding c.mu",
		},
		{
			name:     "lockedsend/hier_RecvAnyOf_deferred_unlock",
			file:     "hier/recv.go",
			from:     "\t\tc.mu.Unlock()\n\t\treturn runtime.RecvAnyOf(sub, tag, from)\n",
			to:       "\t\tdefer c.mu.Unlock()\n\t\treturn runtime.RecvAnyOf(sub, tag, from)\n",
			analyzer: "lockedsend",
			want:     "call to RecvAnyOf, which may block",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(orig), c.from); n != 1 {
				t.Fatalf("mutation site occurs %d times in %s, want 1: the source drifted, update the case", n, c.file)
			}
			writeFile(t, path, strings.Replace(string(orig), c.from, c.to, 1))
			defer writeFile(t, path, string(orig))

			diags := lintModule(t, dir, "./"+filepath.Dir(c.file))
			if len(diags) != 1 || diags[0].Analyzer != c.analyzer || !strings.Contains(diags[0].Message, c.want) {
				t.Fatalf("want exactly one %s finding containing %q, got:\n%s", c.analyzer, c.want, joinDiags(diags))
			}
		})
	}
}

func lintModule(t *testing.T, dir, pattern string) []Diagnostic {
	t.Helper()
	pkgs, err := Load(dir, pattern)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// copyPackage copies a package's non-test Go files into dst.
func copyPackage(t *testing.T, src, dst string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dst, filepath.Base(f)), string(data))
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func joinDiags(diags []Diagnostic) string {
	if len(diags) == 0 {
		return "  (none)"
	}
	lines := make([]string, len(diags))
	for i, d := range diags {
		lines[i] = "  " + d.String()
	}
	return strings.Join(lines, "\n")
}
