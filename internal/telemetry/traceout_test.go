package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// seedRegistry builds a registry with a deterministic span/counter pattern:
// each rank records one gather span and one slice per stage.
func seedRegistry(t *testing.T, ranks, stages int) *Registry {
	t.Helper()
	g := MustNew(Config{Ranks: ranks, Stages: stages})
	base := g.Epoch()
	for r := 0; r < ranks; r++ {
		tr := g.Rank(r)
		tr.SpanBetween(KGather, -1, base, base.Add(time.Microsecond))
		for d := 0; d < stages; d++ {
			start := base.Add(time.Duration(d+1) * time.Microsecond)
			tr.SpanBetween(KDeliver, d, start, start.Add(time.Microsecond))
			tr.CountSend(d, 64)
			tr.CountForward(d, 2, 32)
		}
	}
	return g
}

func TestWriteTraceRoundTrip(t *testing.T) {
	const ranks, stages = 3, 4
	g := seedRegistry(t, ranks, stages)
	var buf bytes.Buffer
	if err := g.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tracks) != ranks {
		t.Fatalf("%d tracks, want one per rank (%d)", len(st.Tracks), ranks)
	}
	for r := 0; r < ranks; r++ {
		tr := st.Tracks[r]
		if tr == nil || !tr.Named {
			t.Fatalf("rank %d track missing or unnamed", r)
		}
		if tr.Slices != 1+stages {
			t.Fatalf("rank %d has %d slices, want %d", r, tr.Slices, 1+stages)
		}
		if tr.Kinds["gather"] != 1 || tr.Kinds["deliver"] != stages {
			t.Fatalf("rank %d kinds = %v", r, tr.Kinds)
		}
		for d := 0; d < stages; d++ {
			if tr.Stages[d] != 1 {
				t.Fatalf("rank %d stage %d slice count = %d", r, d, tr.Stages[d])
			}
		}
	}
}

func TestTraceSliceArgs(t *testing.T) {
	g := seedRegistry(t, 1, 1)
	tf := buildTrace(g.Snapshot())
	var found bool
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Name != "deliver 0" {
			continue
		}
		found = true
		if e.Args["sends"] != int64(1) || e.Args["send_bytes"] != int64(64) || e.Args["forwards"] != int64(2) {
			t.Fatalf("deliver slice args = %v", e.Args)
		}
		if e.Dur <= 0 {
			t.Fatalf("deliver slice dur = %v", e.Dur)
		}
	}
	if !found {
		t.Fatal("no deliver 0 slice emitted")
	}
}

func TestWriteTraceFile(t *testing.T) {
	g := seedRegistry(t, 2, 2)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := g.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(data); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteTraceFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x.json")); err == nil {
		t.Fatal("unwritable path should error")
	}
}

func TestValidateTraceRejects(t *testing.T) {
	mk := func(events []TraceEvent) []byte {
		b, err := json.Marshal(TraceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := map[string][]byte{
		"not json":  []byte("{"),
		"no events": mk(nil),
		"no phase":  mk([]TraceEvent{{Name: "x", Ts: 1}}),
		"negative":  mk([]TraceEvent{{Name: "x", Ph: "X", Ts: -1}}),
		"unnamed":   mk([]TraceEvent{{Ph: "X", Ts: 1}}),
		"no thread": mk([]TraceEvent{{Name: "x", Ph: "X", Ts: 1, Tid: 3}}),
	}
	for name, data := range cases {
		if _, err := ValidateTrace(data); err == nil {
			t.Errorf("%s: ValidateTrace accepted invalid input", name)
		}
	}
}
