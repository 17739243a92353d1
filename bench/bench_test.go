package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stfw/internal/runtime"
)

// mini shrinks a workload to K=8 so the tests drive the benchmark's own code
// paths in well under a second each.
func mini(sp spec) spec {
	sp.K = 8
	if sp.dims != nil {
		sp.dims = []int{2, 2, 2}
	}
	if sp.matrix == "coAuthorsDBLP" {
		sp.scale = 16
	}
	sp.chunk = min(sp.chunk, 4)
	return sp
}

// oneChunk runs exactly one chunk of sp.chunk ops.
const oneChunk = 1e-9

func TestEveryWorkloadRunsCorrectly(t *testing.T) {
	for _, sp := range workloads {
		sp := mini(sp)
		res, err := runEndToEnd(sp, 1, oneChunk, 2)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != sp.chunk {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", sp.name, res.Correct, res.Attempted, res.Failed)
		}
		for _, m := range endToEnd {
			if got := res.Metrics[m.name]; got.Value <= 0 || got.Unit != m.unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %s", sp.name, m.name, got.Value, got.Unit, m.unit)
			}
		}
	}
}

// The check against the serial reference is live: spoil the reference (or,
// where the reference is derived during set-up, the input it is derived
// from) and ops fail.
func TestSpoiledReferenceFailsOps(t *testing.T) {
	spoil := map[kind]func(in instance){
		kindSpMV:   func(in instance) { s := in.(*spmvInstance); s.refs[0][0] += 1 },
		kindCG:     func(in instance) { s := in.(*cgInstance); s.xref[0] += 1 },
		kindReplay: func(in instance) { in.(*replayInstance).sources[0]++ },
	}
	for _, sp := range workloads {
		sp := mini(sp)
		in, err := generate(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f := spoil[sp.kind]; f != nil {
			f(in)
		}
		w, err := in.setup(noWrap, &setupTimes{})
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if sp.kind == kindChurn {
			// The reference halo was computed from x during set-up.
			for i := range in.(*churnInstance).x[0] {
				in.(*churnInstance).x[0][i] += 1
			}
		}
		win, err := w.measure(oneChunk, sp.chunk)
		w.close()
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if win.failed == 0 {
			t.Errorf("%s: a spoiled reference failed no op", sp.name)
		}
	}
}

// countMetrics are the per-layer metrics that must repeat exactly for one seed.
var countMetrics = []string{
	"core.frames_per_iter", "core.wire_bytes_per_iter", "core.fwd_bytes_per_iter",
	"core.mmax", "core.mavg", "core.volume_blowup",
}

func tracedCounts(t *testing.T, sp spec, seed int64) map[string]float64 {
	t.Helper()
	in, err := generate(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	wrap, tcs := traceWrap(time.Now())
	w, err := in.setup(wrap, &setupTimes{})
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	defer w.close()
	for _, c := range *tcs {
		c.reset()
	}
	win, err := w.measure(oneChunk, sp.chunk)
	if err != nil || win.failed != 0 {
		t.Fatalf("%s: err=%v failed=%d", sp.name, err, win.failed)
	}
	tr := newTraced(sp)
	tr.spans(*tcs, win)
	if err := tr.staticPlan(w); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, name := range countMetrics {
		out[name] = tr.res.Metrics[name].Value
	}
	if w.lastCG != nil {
		out["iterative.iters"] = float64(w.lastCG().Iters)
	}
	return out
}

func TestSameSeedSameCounts(t *testing.T) {
	for _, sp := range workloads {
		sp := mini(sp)
		a, b, other := tracedCounts(t, sp, 3), tracedCounts(t, sp, 3), tracedCounts(t, sp, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 3 twice gave %v and %v", sp.name, a, b)
		}
		// At K=8 the replay pattern's 8 destinations per rank are all 7
		// peers whatever the seed.
		if sp.kind != kindReplay && reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 3 and 4 gave the same counts %v; is the seed used?", sp.name, a)
		}
		if a["core.frames_per_iter"] == 0 {
			t.Errorf("%s: the decorator saw no stage frames", sp.name)
		}
	}
}

// A decorator must not change what the program can ask of its transport.
func TestDecoratorIsCapabilityTransparent(t *testing.T) {
	for _, tp := range []string{"chanpt", "tcpnet", "udpnet", "hier"} {
		raw, closeFn, err := openWorld(tp, 4, func(r int) int { return r / 2 })
		if err != nil {
			t.Fatal(err)
		}
		wrap, _ := traceWrap(time.Now())
		wrapped := wrap(append([]runtime.Comm(nil), raw...), 2)
		// Put traffic on the wire so LinkStats has rows to forward.
		err = runtime.Run(wrapped, func(c runtime.Comm) error {
			peer := (c.Rank() + 2) % 4
			if err := c.Send(peer, 7, []byte{1}); err != nil {
				return err
			}
			_, _, err := runtime.RecvAnyOf(c, 7, []int{peer})
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", tp, err)
		}
		for r := range raw {
			if _, ok := raw[r].(runtime.AnyReceiver); !ok {
				t.Fatalf("%s: transport lost AnyReceiver", tp)
			}
			if got, want := runtime.SendRetains(wrapped[r]), runtime.SendRetains(raw[r]); got != want {
				t.Errorf("%s: SendRetains %v through the decorator, %v without", tp, got, want)
			}
			glo, ghi, gok := runtime.ReservedTagsOf(wrapped[r])
			wlo, whi, wok := runtime.ReservedTagsOf(raw[r])
			if glo != wlo || ghi != whi || gok != wok {
				t.Errorf("%s: ReservedTags [%d,%d) %v through the decorator, [%d,%d) %v without", tp, glo, ghi, gok, wlo, whi, wok)
			}
			if got, want := runtime.LinkStatsOf(wrapped[r]), runtime.LinkStatsOf(raw[r]); len(got) != len(want) {
				t.Errorf("%s: %d link rows through the decorator, %d without", tp, len(got), len(want))
			}
		}
		closeFn()
	}
}

// Dropping HintTraffic would take udpnet off its hint-driven flow control:
// no ack would fire on a completed hinted stage and none would be suppressed.
// Both shares must be the same with and without the decorator.
func TestDecoratorKeepsHintedFlowControl(t *testing.T) {
	sp, err := findWorkload("spmv-udp")
	if err != nil {
		t.Fatal(err)
	}
	sp = mini(sp)
	sp.chunk = 200
	shares := func(wrap wrapFunc) (stage, suppressed float64) {
		in, err := generate(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := in.setup(wrap, &setupTimes{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		a := linkTotals(w.comms)
		if _, err := w.measure(oneChunk, sp.chunk); err != nil {
			t.Fatal(err)
		}
		b := linkTotals(w.comms)
		sent := float64(b.AcksSent - a.AcksSent)
		held := float64(b.AcksSuppressed - a.AcksSuppressed)
		return float64(b.StageAcks-a.StageAcks) / sent, held / (held + sent)
	}
	wrap, _ := traceWrap(time.Now())
	bareStage, bareHeld := shares(noWrap)
	decStage, decHeld := shares(wrap)
	if bareStage < 0.5 || math.Abs(bareStage-decStage) > 0.05 {
		t.Errorf("stage acks: share %.3f bare, %.3f behind the decorator", bareStage, decStage)
	}
	if math.Abs(bareHeld-decHeld) > 0.05 {
		t.Errorf("acks suppressed: share %.3f bare, %.3f behind the decorator", bareHeld, decHeld)
	}
}

func TestTracedPassReportsEveryLayerMetric(t *testing.T) {
	for _, name := range []string{"spmv-chan-tele", "cg-udp", "churn-chan", "replay-hier"} {
		sp, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		res, err := runTraced(mini(sp), 1, 4*oneChunk, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: traced pass failed %d of %d ops", name, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics reported, %d declared", name, len(res.Metrics), len(perLayer))
		}
		for _, m := range []string{"transport.recv_wait_us", "world.iter_self_us", "core.frames_per_iter", "trace.overhead_ratio", "proc.cpu_util"} {
			if res.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v", name, m, res.Metrics[m].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, name+".trace.json")); err != nil {
			t.Errorf("%s: no trace dump: %v", name, err)
		}
	}
}

// BENCHMARK.json is written by hand; the tables in metrics.go and spec.go
// are what the program reports.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("manifest lacks key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("manifest has %d keys, the contract allows exactly 6", len(keys))
	}
	var man struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in spec.go", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: manifest %q, spec.go %q", i, w.Name, workloads[i].name)
		}
	}
	if len(man.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in metrics.go", len(man.EndToEnd), len(endToEnd))
	}
	for i, m := range man.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != bounds[want.name] {
			t.Errorf("end_to_end[%d]: manifest %+v, metrics.go %+v bound %v", i, m, want, bounds[want.name])
		}
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in metrics.go", len(man.PerLayer), len(perLayer))
	}
	for i, m := range man.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d]: manifest %+v, metrics.go %+v", i, m, want)
		}
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of [1 2 4] = %v, %v; Python gives 1, 4", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(failed int, p50 ...float64) *suiteFile {
		s := &series{Unit: "ms"}
		for _, v := range p50 {
			s.add(v)
		}
		return &suiteFile{Workloads: []*workloadRuns{{Name: "w", Attempted: 100, Failed: failed, EndToEnd: map[string]*series{"op_p50_ms": s}}}}
	}
	dir := t.TempDir()
	write := func(name string, f *suiteFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(0, 1.00, 1.01, 0.99, 1.00, 1.00))
	for _, c := range []struct {
		name    string
		head    *suiteFile
		verdict string
		worse   bool
	}{
		{"same", mk(0, 1.02, 1.03, 1.02, 1.01, 1.02), "same", false},
		{"better", mk(0, 0.60, 0.61, 0.60, 0.60, 0.59), "better", false},
		{"worse", mk(0, 1.50, 1.51, 1.50, 1.50, 1.49), "worse", true},
		{"noisy", mk(0, 0.7, 1.5, 1.0, 1.3, 0.8), "unresolved", false},
		{"failing", mk(1, 1.00, 1.01, 0.99, 1.00, 1.00), "failed share rose", true},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(c.name+".json", c.head))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: worse=%v, output:\n%s", c.name, worse, out.String())
		}
	}
}
