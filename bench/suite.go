package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// envInfo says where a result file was measured.
type envInfo struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Quick      bool    `json:"quick"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	GitHead    string  `json:"git_head"`
	When       string  `json:"when"`
}

// series is one metric of one workload over the runs of a result file.
// Quartiles are the ones Python's statistics.quantiles(v, n=4) gives.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type workloadRuns struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
}

type suiteFile struct {
	Env       envInfo         `json:"env"`
	Workloads []*workloadRuns `json:"workloads"`
	// Summary holds what only the suite as a whole can say; today the
	// telemetry overhead as the ratio of two workloads' medians.
	Summary map[string]float64 `json:"summary"`
}

// quartiles follows statistics.quantiles(v, n=4), the default exclusive
// method: position i*(n+1)/4, interpolated, clamped to the data.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
}

// spread is the distance between the quartiles as a share of the median.
func (s *series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func collectEnv(seed int64, seconds float64, runs int, quick bool) envInfo {
	env := envInfo{
		Seed: seed, Seconds: seconds, Runs: runs, Quick: quick,
		NProc: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion: goruntime.Version(), CPU: "unknown", GitHead: "unknown",
		When: time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitHead = strings.TrimSpace(string(out))
	}
	return env
}

// runChild runs one pass of one workload in a fresh process of this binary
// and parses the result off the last line of its output.
func runChild(name string, seed int64, seconds float64, trace int, quick bool, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): last line is no result: %w", name, trace, err)
	}
	return &res, nil
}

// runSuite runs every workload, untraced then traced, one process at a
// time, prints the medians and writes result.json.
func runSuite(seed int64, seconds float64, runs int, quick bool, outDir string) error {
	file := suiteFile{Env: collectEnv(seed, seconds, runs, quick), Summary: map[string]float64{}}
	for _, sp := range workloads {
		wr := &workloadRuns{Name: sp.name, EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
		for i := 0; i < runs; i++ {
			for trace, into := range []map[string]*series{wr.EndToEnd, wr.PerLayer} {
				res, err := runChild(sp.name, seed+int64(i), seconds, trace, quick, outDir)
				if err != nil {
					return err
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				for name, m := range res.Metrics {
					if into[name] == nil {
						into[name] = &series{Unit: m.Unit}
					}
					into[name].add(m.Value)
				}
			}
		}
		file.Workloads = append(file.Workloads, wr)
		fmt.Printf("== %s: %d ops attempted, %d failed\n", sp.name, wr.Attempted, wr.Failed)
		for _, set := range [][]metricDecl{endToEnd, perLayer} {
			for _, m := range set {
				s := wr.EndToEnd[m.name]
				if s == nil {
					s = wr.PerLayer[m.name]
				}
				if s != nil {
					fmt.Printf("  %-34s %14.6g %-6s spread %.3f\n", m.name, s.Median, s.Unit, s.spread())
				}
			}
		}
	}
	if on, off := file.find("spmv-chan-tele"), file.find("spmv-chan"); on != nil && off != nil {
		file.Summary["telemetry.overhead_ratio"] = on.EndToEnd["op_p50_ms"].Median / off.EndToEnd["op_p50_ms"].Median
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, wr := range file.Workloads {
		if wr.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", wr.Name, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

func (f *suiteFile) find(name string) *workloadRuns {
	for _, wr := range f.Workloads {
		if wr.Name == name {
			return wr
		}
	}
	return nil
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and reports
// whether any got worse by more than its bound or any workload failed more.
func compareFiles(w io.Writer, basePath, headPath string) (worse bool, err error) {
	base, err := readSuite(basePath)
	if err != nil {
		return false, err
	}
	head, err := readSuite(headPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-10s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "head", "head/base", "bound", "verdict")
	for _, b := range base.Workloads {
		h := head.find(b.Name)
		if h == nil {
			continue
		}
		for _, m := range endToEnd {
			bs, hs := b.EndToEnd[m.name], h.EndToEnd[m.name]
			if bs == nil || hs == nil {
				continue
			}
			v := verdict(m, bounds[m.name], bs, hs)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-16s %-10s %12.6g %12.6g %8.3f %6.2f  %s\n", b.Name, m.name, bs.Median, hs.Median, hs.Median/bs.Median, bounds[m.name], v)
		}
		if h.Failed*b.Attempted > b.Failed*h.Attempted {
			worse = true
			fmt.Fprintf(w, "%-16s failed share rose: %d/%d -> %d/%d\n", b.Name, b.Failed, b.Attempted, h.Failed, h.Attempted)
		}
	}
	return worse, nil
}

// verdict is `unresolved` when either side's own spread exceeds the bound,
// else better, worse or same by whether the medians differ by more than it.
func verdict(m metricDecl, bound float64, base, head *series) string {
	if base.spread() > bound || head.spread() > bound {
		return "unresolved"
	}
	worsening := (head.Median - base.Median) / base.Median
	if m.better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > bound:
		return "worse"
	case worsening < -bound:
		return "better"
	}
	return "same"
}
