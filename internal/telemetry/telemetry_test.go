package telemetry

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stfw/internal/runtime"
)

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Ranks: 0, Stages: 1},
		{Ranks: -1, Stages: 1},
		{Ranks: 1, Stages: 0},
		{Ranks: 1, Stages: 1, SpanCap: -3},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): want error", cfg)
		}
	}
	g, err := New(Config{Ranks: 2, Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Ranks() != 2 || g.Stages() != 3 {
		t.Fatalf("got %d ranks %d stages, want 2/3", g.Ranks(), g.Stages())
	}
	if g.Epoch().IsZero() {
		t.Fatal("epoch not set")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew on invalid config did not panic")
		}
	}()
	MustNew(Config{})
}

// nilHandles are the package's exported pointer-receiver handle types. A
// nil *Registry is the documented off-switch and every handle reached
// through it is nil too, so each of their exported methods must work on a
// nil receiver.
var nilHandles = []any{(*Registry)(nil), (*Rank)(nil), (*Histogram)(nil), (*Snapshot)(nil), (*DebugServer)(nil)}

// TestNilSafety calls every exported method of every nil handle by
// reflection: disabled telemetry must be a no-op that returns zero values
// (or the documented disabled-registry answer), never a panic. A go/parser
// walk of the package's sources checks that nilHandles names exactly the
// types with exported pointer-receiver methods, so a new handle cannot go
// unchecked.
func TestNilSafety(t *testing.T) {
	checkNilHandleList(t)

	// A disabled registry's ServeDebug must not unpublish a live one.
	prev := currentRegistry.Load()
	live := MustNew(Config{Ranks: 1, Stages: 1})
	currentRegistry.Store(live)
	defer currentRegistry.Store(prev)

	tracePath := filepath.Join(t.TempDir(), "trace.json")
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	linkSource := reflect.TypeOf((*runtime.LinkStatsSource)(nil)).Elem()
	for _, h := range nilHandles {
		recv := reflect.ValueOf(h)
		for i := 0; i < recv.NumMethod(); i++ {
			name := recv.Type().Elem().Name() + "." + recv.Type().Method(i).Name
			method := recv.Method(i)
			args := make([]reflect.Value, method.Type().NumIn())
			for j := range args {
				switch in := method.Type().In(j); in {
				case writer:
					args[j] = reflect.ValueOf(io.Discard)
				case linkSource:
					// Non-nil, so SetLinkSource's src == nil test cannot
					// stand in for its receiver guard.
					args[j] = reflect.ValueOf(runtime.LinkStatsSource(staticLinks{}))
				default:
					args[j] = reflect.Zero(in)
				}
			}
			switch name {
			case "Registry.ServeDebug":
				args[0] = reflect.ValueOf("127.0.0.1:0")
			case "Registry.WriteTraceFile":
				args[0] = reflect.ValueOf(tracePath)
			}

			out, err := callNoPanic(method, args)
			if err != nil {
				t.Errorf("%s on a nil receiver: %v", name, err)
				continue
			}
			switch name {
			case "Registry.Handler":
				if out[0].IsNil() {
					t.Errorf("%s: nil handler", name)
				}
			case "Registry.ServeDebug":
				if !out[1].IsNil() {
					t.Errorf("%s: %v", name, out[1].Interface())
				} else if err := out[0].Interface().(*DebugServer).Close(); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			case "Registry.WriteTrace", "Registry.WriteTraceFile":
				if out[0].IsNil() {
					t.Errorf("%s: want a disabled-registry error", name)
				}
			default:
				for k, o := range out {
					if !o.IsZero() {
						t.Errorf("%s result %d = %v, want the zero value", name, k, o)
					}
				}
			}
		}
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("WriteTraceFile on a nil registry touched %s (stat: %v)", tracePath, err)
	}
	if currentRegistry.Load() != live {
		t.Error("ServeDebug on a nil registry replaced the published registry")
	}
	var sb strings.Builder
	(*Registry)(nil).WriteHistograms(&sb)
	if !strings.Contains(sb.String(), "disabled") {
		t.Error("nil registry histogram dump should say disabled")
	}
}

// callNoPanic calls the method and turns a panic into an error.
func callNoPanic(method reflect.Value, args []reflect.Value) (out []reflect.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return method.Call(args), nil
}

// staticLinks is a LinkStatsSource with nothing to report.
type staticLinks struct{}

func (staticLinks) LinkStats() []runtime.LinkStats { return nil }

// checkNilHandleList parses the package's non-test sources and requires the
// set of exported types with exported pointer-receiver methods to be
// exactly nilHandles.
func checkNilHandleList(t *testing.T) {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); ok && id.IsExported() {
				found[id.Name] = true
			}
		}
	}
	listed := map[string]bool{}
	for _, h := range nilHandles {
		listed[reflect.TypeOf(h).Elem().Name()] = true
	}
	for name := range found {
		if !listed[name] {
			t.Errorf("*%s has exported methods but is not in nilHandles", name)
		}
	}
	for name := range listed {
		if !found[name] {
			t.Errorf("nilHandles lists %s, which has no exported pointer-receiver methods", name)
		}
	}
}

func TestRankOutOfRange(t *testing.T) {
	g := MustNew(Config{Ranks: 2, Stages: 1})
	if g.Rank(-1) != nil || g.Rank(2) != nil {
		t.Fatal("out-of-range rank lookup should be nil")
	}
	if g.Rank(1) == nil {
		t.Fatal("in-range rank lookup is nil")
	}
}

func TestCountersAndSnapshot(t *testing.T) {
	g := MustNew(Config{Ranks: 2, Stages: 3})
	r0 := g.Rank(0)
	r0.CountSend(1, 100)
	r0.CountSend(1, 50)
	r0.CountRecv(1, 80)
	r0.CountForward(2, 3, 24)
	r0.CountBarrier(500)
	g.Rank(1).CountSend(0, 7)

	c := r0.Counters(1)
	want := CounterSnapshot{Sends: 2, SendBytes: 150, Recvs: 1, RecvBytes: 80}
	if c != want {
		t.Fatalf("stage 1 counters = %+v, want %+v", c, want)
	}
	if f := r0.Counters(2); f.Forwards != 3 || f.FwdBytes != 24 {
		t.Fatalf("stage 2 forwards = %+v", f)
	}
	if (r0.Counters(99) != CounterSnapshot{}) {
		t.Fatal("out-of-range Counters not zero")
	}

	s := g.Snapshot()
	tot := s.Totals()
	if tot.Sends != 3 || tot.SendBytes != 157 || tot.Recvs != 1 || tot.Forwards != 3 {
		t.Fatalf("totals = %+v", tot)
	}
	if s.Ranks[0].Barriers != 1 || s.Ranks[0].BarrierNs != 500 {
		t.Fatalf("barrier counters = %+v", s.Ranks[0])
	}
	if s.FrameSizes.Count != 3 {
		t.Fatalf("frame size histogram saw %d frames, want 3", s.FrameSizes.Count)
	}
}

// TestStageSlotFolding: out-of-range stage indices land on the edge slots
// rather than panicking.
func TestStageSlotFolding(t *testing.T) {
	g := MustNew(Config{Ranks: 1, Stages: 2})
	r := g.Rank(0)
	r.CountSend(-5, 1)
	r.CountSend(99, 2)
	if c := r.Counters(0); c.Sends != 1 {
		t.Fatalf("stage 0 (folded from -5) sends = %d", c.Sends)
	}
	if c := r.Counters(1); c.Sends != 1 {
		t.Fatalf("stage 1 (folded from 99) sends = %d", c.Sends)
	}
}

func TestSpanRing(t *testing.T) {
	g := MustNew(Config{Ranks: 1, Stages: 1, SpanCap: 4})
	r := g.Rank(0)
	base := g.Epoch()
	for i := 0; i < 6; i++ {
		start := base.Add(time.Duration(i) * time.Millisecond)
		r.SpanBetween(KDeliver, 0, start, start.Add(time.Millisecond))
	}
	if r.SpanCount() != 6 {
		t.Fatalf("span count = %d, want 6", r.SpanCount())
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want ring cap 4", len(spans))
	}
	// Oldest-first: spans 2..5 survive.
	for i, sp := range spans {
		want := int64((i + 2)) * int64(time.Millisecond)
		if sp.Start != want {
			t.Fatalf("span %d start = %d, want %d", i, sp.Start, want)
		}
		if sp.Dur != int64(time.Millisecond) {
			t.Fatalf("span %d dur = %d", i, sp.Dur)
		}
	}
	if g.Snapshot().StageNs.Count != 6 {
		t.Fatal("stage-scoped spans should feed the latency histogram")
	}
}

// TestSpanConcurrent hammers one rank's ring from several goroutines while
// another opens exchanges, as the main loop does beside the pipelined send
// worker; run under -race this locks down the atomic-cursor claim
// discipline (the ring holds every span, so no two writers share a slot)
// and the sampling counter CountSend reads.
func TestSpanConcurrent(t *testing.T) {
	g := MustNew(Config{Ranks: 1, Stages: 1, SpanCap: 2000})
	r := g.Rank(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.SpanMark(KForward, 0, -1, time.Now())
				r.CountSend(0, 8)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			r.Sample()
		}
	}()
	wg.Wait()
	if r.SpanCount() != 2000 {
		t.Fatalf("span count = %d, want 2000", r.SpanCount())
	}
	if c := r.Counters(0); c.Sends != 2000 {
		t.Fatalf("sends = %d, want 2000", c.Sends)
	}
}

// TestSampleEvery pins the sampling rule on one rank: exchanges 0, 16 and
// 32 of 33 are traced — Sample hands back the rank, Sampled agrees, their
// spans and latencies land — while the others record nothing but counters.
// A frame sent before the first exchange is observed; frames sent inside an
// untraced exchange are counted but not observed.
func TestSampleEvery(t *testing.T) {
	g := MustNew(Config{Ranks: 1, Stages: 1})
	r := g.Rank(0)
	if r.Sampled() {
		t.Fatal("Sampled before the first exchange")
	}
	r.CountSend(0, 8)
	var traced []int
	for i := 0; i < 2*SampleEvery+1; i++ {
		tr := r.Sample()
		if tr != nil && tr != r {
			t.Fatalf("exchange %d: Sample returned a different collector", i)
		}
		if (tr != nil) != r.Sampled() {
			t.Fatalf("exchange %d: Sample traced=%v, Sampled=%v", i, tr != nil, r.Sampled())
		}
		if tr != nil {
			traced = append(traced, i)
		}
		tr.SpanMark(KDeliver, 0, 3, g.Epoch())
		r.CountSend(0, 8)
	}
	if want := []int{0, SampleEvery, 2 * SampleEvery}; !reflect.DeepEqual(traced, want) {
		t.Fatalf("traced exchanges %v, want %v", traced, want)
	}
	s := g.Snapshot()
	rs := s.Ranks[0]
	if rs.Stages[0].Sends != 2+2*SampleEvery {
		t.Errorf("sends = %d, want every one of %d", rs.Stages[0].Sends, 2+2*SampleEvery)
	}
	if rs.Traced != 3 || rs.SpanCount != 3 {
		t.Errorf("traced %d exchanges with %d spans, want 3 and 3", rs.Traced, rs.SpanCount)
	}
	for _, sp := range rs.Spans {
		if sp.Peer != 3 {
			t.Errorf("span peer %d, want 3", sp.Peer)
		}
	}
	if s.FrameSizes.Count != 4 || s.StageNs.Count != 3 {
		t.Errorf("histograms saw %d frames and %d stage spans, want 4 and 3", s.FrameSizes.Count, s.StageNs.Count)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KGather: "gather", KExchange: "exchange", KKernel: "kernel",
		KReduce: "reduce", KForward: "forward",
		KDeliver: "deliver", Kind(200): "Kind(200)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1000, -7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 1110 {
		t.Fatalf("sum = %d", s.Sum)
	}
	// Buckets: <=1 gets 0,1,-7 → 3; (1,2] → 1; (2,4] → 2; (64,128] → 1;
	// (512,1024] → 1.
	if s.Buckets[0] != 3 || s.Buckets[1] != 1 || s.Buckets[2] != 2 {
		t.Fatalf("low buckets = %v", s.Buckets[:3])
	}
	if got := s.Mean(); got != 1110.0/8 {
		t.Fatalf("mean = %v", got)
	}
	if q := s.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %d, want 2", q)
	}
	if q := s.Quantile(1); q != 1024 {
		t.Fatalf("p100 = %d, want 1024", q)
	}
	if q := s.Quantile(-1); q != 1 {
		t.Fatalf("clamped p(-1) = %d, want bucket-0 edge 1", q)
	}
	var empty HistSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.9) != 0 {
		t.Fatal("empty snapshot moments should be zero")
	}
}

func TestHistMerge(t *testing.T) {
	a := HistSnapshot{Buckets: []int64{1, 2}, Count: 3, Sum: 5}
	b := HistSnapshot{Buckets: []int64{0, 1, 0, 4}, Count: 5, Sum: 40}
	a.merge(b)
	if a.Count != 8 || a.Sum != 45 {
		t.Fatalf("merged moments = %d/%d", a.Count, a.Sum)
	}
	want := []int64{1, 3, 0, 4}
	if len(a.Buckets) != len(want) {
		t.Fatalf("merged buckets = %v", a.Buckets)
	}
	for i := range want {
		if a.Buckets[i] != want[i] {
			t.Fatalf("merged buckets = %v, want %v", a.Buckets, want)
		}
	}
	var empty HistSnapshot
	empty.merge(HistSnapshot{})
	if empty.Count != 0 || len(empty.Buckets) != 0 {
		t.Fatal("empty merge mutated")
	}
}

func TestHistBucketEdges(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for v, want := range cases {
		if got := histBucket(v); got != want {
			t.Errorf("histBucket(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestWriteHistograms(t *testing.T) {
	g := MustNew(Config{Ranks: 1, Stages: 1})
	g.Rank(0).CountSend(0, 64)
	g.Rank(0).SpanBetween(KDeliver, 0, g.Epoch(), g.Epoch().Add(time.Microsecond))
	var sb strings.Builder
	g.WriteHistograms(&sb)
	out := sb.String()
	for _, want := range []string{"frame sizes", "stage latencies", "n=1", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram dump missing %q:\n%s", want, out)
		}
	}
}
