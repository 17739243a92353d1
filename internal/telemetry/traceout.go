package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Chrome trace-event export: the snapshot's spans rendered in the Trace
// Event Format (the JSON Perfetto and chrome://tracing load). One process
// represents the world, one thread per rank is one track, and every span
// is one complete ("X") slice, named by its kind and stage. Timestamps are
// microseconds since the world epoch: each rank's EpochOffsetNs (zero for
// single-process snapshots, set by MergeSnapshots for fleet merges) shifts
// its spans onto the shared timeline, so slices from all ranks — across
// process boundaries — line up and the per-stage skew between ranks, the
// paper's max-vs-avg story, is directly visible as ragged slice edges. A
// slice whose span names a last-arriving sender carries it as args.peer.

// TraceEvent is one entry of the "traceEvents" array. Fields follow the
// Trace Event Format; Ts and Dur are microseconds.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the top-level JSON object WriteTrace emits.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// buildTrace converts a snapshot into trace-event form.
func buildTrace(s Snapshot) *TraceFile {
	tf := &TraceFile{DisplayTimeUnit: "ns"}
	tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "stfw world"},
	})
	for _, r := range s.Ranks {
		tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: r.Rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r.Rank)},
		})
		tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
			Name: "thread_sort_index", Ph: "M", Pid: 0, Tid: r.Rank,
			Args: map[string]any{"sort_index": r.Rank},
		})
		for _, sp := range r.Spans {
			name := sp.Kind.String()
			args := map[string]any{"kind": name}
			if sp.Stage >= 0 {
				name = fmt.Sprintf("%s %d", name, sp.Stage)
				args["stage"] = int(sp.Stage)
				c := s.Ranks[r.Rank].Stages
				if int(sp.Stage) < len(c) {
					args["sends"] = c[sp.Stage].Sends
					args["send_bytes"] = c[sp.Stage].SendBytes
					args["forwards"] = c[sp.Stage].Forwards
				}
			}
			if sp.Peer >= 0 {
				args["peer"] = int(sp.Peer)
			}
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: name, Cat: "stfw", Ph: "X",
				Ts:  float64(sp.Start+r.EpochOffsetNs) / 1e3,
				Dur: float64(sp.Dur) / 1e3,
				Pid: 0, Tid: r.Rank, Args: args,
			})
		}
	}
	return tf
}

// WriteTrace renders the registry's current snapshot as Chrome trace-event
// JSON: open the output in https://ui.perfetto.dev (or chrome://tracing)
// to see one track per rank with one slice per recorded span.
func (g *Registry) WriteTrace(w io.Writer) error {
	if g == nil {
		return fmt.Errorf("telemetry: trace export on a disabled registry")
	}
	return WriteSnapshotTrace(w, g.Snapshot())
}

// WriteSnapshotTrace renders an already-taken snapshot — typically a fleet
// merge, whose per-rank epoch offsets place every process's spans on the
// world timeline — as Chrome trace-event JSON.
func WriteSnapshotTrace(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	return enc.Encode(buildTrace(s))
}

// WriteTraceFile writes the trace JSON to path (0644).
func (g *Registry) WriteTraceFile(path string) error {
	if g == nil {
		return fmt.Errorf("telemetry: trace export on a disabled registry")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TraceStats summarizes a validated trace: which rank tracks exist and how
// many slices of each kind each track carries, plus the distinct stage
// indices seen per track. Tests use it to assert "one track per rank, one
// slice per stage".
type TraceStats struct {
	Tracks map[int]*TrackStats
}

// TrackStats is the per-rank-track part of TraceStats.
type TrackStats struct {
	Named  bool           // a thread_name metadata record exists
	Slices int            // complete ("X") events
	Kinds  map[string]int // slice count by kind arg
	Stages map[int]int    // slice count by stage arg (stage-scoped slices only)
}

// ValidateTrace parses trace-event JSON produced by WriteTrace (or any
// conforming producer) and checks the structural invariants Perfetto
// relies on: a traceEvents array, every event carrying a phase, complete
// events with non-negative ts/dur, and slices bound to a named track.
func ValidateTrace(data []byte) (*TraceStats, error) {
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("telemetry: trace does not parse: %w", err)
	}
	if len(tf.TraceEvents) == 0 {
		return nil, fmt.Errorf("telemetry: trace has no events")
	}
	st := &TraceStats{Tracks: map[int]*TrackStats{}}
	track := func(tid int) *TrackStats {
		tr := st.Tracks[tid]
		if tr == nil {
			tr = &TrackStats{Kinds: map[string]int{}, Stages: map[int]int{}}
			st.Tracks[tid] = tr
		}
		return tr
	}
	for i, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				track(e.Tid).Named = true
			}
		case "X":
			if e.Ts < 0 || e.Dur < 0 {
				return nil, fmt.Errorf("telemetry: event %d: negative ts/dur", i)
			}
			if e.Name == "" {
				return nil, fmt.Errorf("telemetry: event %d: unnamed slice", i)
			}
			tr := track(e.Tid)
			tr.Slices++
			if k, ok := e.Args["kind"].(string); ok {
				tr.Kinds[k]++
			}
			if v, ok := e.Args["stage"]; ok {
				if f, ok := v.(float64); ok {
					tr.Stages[int(f)]++
				}
			}
		case "":
			return nil, fmt.Errorf("telemetry: event %d: missing phase", i)
		}
	}
	for tid, tr := range st.Tracks {
		if tr.Slices > 0 && !tr.Named {
			return nil, fmt.Errorf("telemetry: track %d has slices but no thread_name", tid)
		}
	}
	return st, nil
}
