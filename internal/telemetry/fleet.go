package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Fleet aggregation: folding per-process snapshots into one world view.
//
// Every process stamps its spans against its own registry epoch (a local
// time.Now() at registry creation), so raw span offsets from different
// processes do not share a timeline. MergeSnapshots elects the earliest
// epoch as the world epoch and records each rank's delta to it in
// RankSnapshot.EpochOffsetNs; consumers that lay spans on a timeline
// (buildTrace, StageStragglers) add the offset. The deltas come from the
// wall-clock epochs, which is exact on one host (the -procs fd-inheritance
// launcher) and as good as the clock sync between hosts — the agent/
// rendezvous runtime can substitute a measured offset without changing
// anything downstream, because the normalization point is this one field.

// MergeSnapshots folds per-process snapshots into one fleet snapshot.
// Counters and histograms sum; each rank's data is taken from the process
// that actually ran it (the one whose snapshot recorded spans or counters
// for that rank — with -procs every process carries a full-width registry
// in which only its local ranks are nonzero). Two processes claiming the
// same rank with recorded spans is a launcher bug and is rejected.
func MergeSnapshots(snaps []Snapshot) (Snapshot, error) {
	if len(snaps) == 0 {
		return Snapshot{}, fmt.Errorf("telemetry: merge of zero snapshots")
	}
	world := snaps[0].Epoch
	for _, s := range snaps[1:] {
		if s.Epoch.Before(world) {
			world = s.Epoch
		}
	}
	size := 0
	for _, s := range snaps {
		for _, r := range s.Ranks {
			if r.Rank+1 > size {
				size = r.Rank + 1
			}
		}
	}
	out := Snapshot{Epoch: world, Ranks: make([]RankSnapshot, size)}
	for i := range out.Ranks {
		out.Ranks[i].Rank = i
	}
	for _, s := range snaps {
		offset := s.Epoch.Sub(world).Nanoseconds()
		out.FrameSizes.merge(s.FrameSizes)
		out.StageNs.merge(s.StageNs)
		for _, r := range s.Ranks {
			if rankSnapshotZero(&r) {
				continue // a remote rank's empty slot in this process's registry
			}
			dst := &out.Ranks[r.Rank]
			if !rankSnapshotZero(dst) {
				return Snapshot{}, fmt.Errorf("telemetry: merge: rank %d recorded by two snapshots", r.Rank)
			}
			*dst = r
			dst.EpochOffsetNs = r.EpochOffsetNs + offset
		}
	}
	return out, nil
}

// rankSnapshotZero reports whether a rank snapshot carries no recorded
// activity at all — the shape of a remote rank's slot in a full-width
// per-process registry.
func rankSnapshotZero(r *RankSnapshot) bool {
	if r.SpanCount != 0 || r.Traced != 0 || len(r.Links) != 0 || r.Barriers != 0 || r.Patches != 0 {
		return false
	}
	for _, c := range r.Stages {
		if c.Sends != 0 || c.Recvs != 0 || c.Forwards != 0 {
			return false
		}
	}
	return true
}

// StageStraggler is the per-stage critical-path summary: which rank was
// slowest and by how much. Busy time is the sum of a rank's stage-scoped
// span durations for the stage (KForward+KDeliver of compiled replays),
// summed across the traced exchanges (RankSnapshot.Traced). EndNs is the
// latest span end for the stage on the world timeline (epoch offsets
// applied), i.e. when the stage's last rank finished — the fleet's
// critical path runs through these. GatingPeer is
// the sender whose frame most often arrived last at the slowest rank in
// this stage (Span.Peer): with SlowestRank it names the gating link.
type StageStraggler struct {
	Stage       int     `json:"stage"`
	Ranks       int     `json:"ranks"` // ranks that recorded spans for this stage
	SlowestRank int     `json:"slowest_rank"`
	GatingPeer  int     `json:"gating_peer"` // -1 when the slowest rank received nothing
	MaxNs       int64   `json:"max_ns"`
	MeanNs      int64   `json:"mean_ns"`
	MinNs       int64   `json:"min_ns"`
	Skew        float64 `json:"skew"` // MaxNs/MeanNs, the paper's max-vs-avg ratio
	EndNs       int64   `json:"end_ns"`
	EndRank     int     `json:"end_rank"`
}

// StageStragglers computes the per-stage straggler table from a
// (possibly merged) snapshot's span rings. Stages no rank recorded are
// absent; the result is ordered by stage.
func (s *Snapshot) StageStragglers() []StageStraggler {
	if s == nil {
		return nil
	}
	type rankBusy struct {
		busy  int64
		end   int64
		endOk bool
		last  map[int32]int // last-arriving sender -> stage spans it closed
	}
	// stage -> rank -> busy/end accumulation
	acc := map[int]map[int]*rankBusy{}
	for _, r := range s.Ranks {
		for _, sp := range r.Spans {
			if sp.Stage < 0 {
				continue
			}
			st := int(sp.Stage)
			m := acc[st]
			if m == nil {
				m = map[int]*rankBusy{}
				acc[st] = m
			}
			rb := m[r.Rank]
			if rb == nil {
				rb = &rankBusy{}
				m[r.Rank] = rb
			}
			rb.busy += sp.Dur
			if end := sp.Start + sp.Dur + r.EpochOffsetNs; !rb.endOk || end > rb.end {
				rb.end, rb.endOk = end, true
			}
			if sp.Peer >= 0 {
				if rb.last == nil {
					rb.last = map[int32]int{}
				}
				rb.last[sp.Peer]++
			}
		}
	}
	stages := make([]int, 0, len(acc))
	for st := range acc {
		stages = append(stages, st)
	}
	sort.Ints(stages)
	out := make([]StageStraggler, 0, len(stages))
	for _, st := range stages {
		m := acc[st]
		sg := StageStraggler{Stage: st, SlowestRank: -1, GatingPeer: -1, EndRank: -1}
		var total int64
		for rank, rb := range m {
			sg.Ranks++
			total += rb.busy
			if sg.SlowestRank < 0 || rb.busy > sg.MaxNs {
				sg.MaxNs, sg.SlowestRank = rb.busy, rank
			}
			if sg.Ranks == 1 || rb.busy < sg.MinNs {
				sg.MinNs = rb.busy
			}
			if sg.EndRank < 0 || rb.end > sg.EndNs {
				sg.EndNs, sg.EndRank = rb.end, rank
			}
		}
		sg.GatingPeer = modePeer(m[sg.SlowestRank].last)
		sg.MeanNs = total / int64(sg.Ranks)
		if sg.MeanNs > 0 {
			sg.Skew = float64(sg.MaxNs) / float64(sg.MeanNs)
		}
		out = append(out, sg)
	}
	return out
}

// modePeer returns the most frequent key of a last-arrival tally, the
// lowest on a tie; -1 for an empty tally.
func modePeer(last map[int32]int) int {
	peer, most := -1, 0
	for p, n := range last {
		if n > most || (n == most && int(p) < peer) {
			peer, most = int(p), n
		}
	}
	return peer
}

// SkewHistogram folds every stage's max-vs-mean busy-time gap (MaxNs -
// MeanNs, nanoseconds) into one log-scale distribution — the one-glance
// answer to "how ragged are the stages".
func SkewHistogram(stats []StageStraggler) HistSnapshot {
	var h Histogram
	for _, sg := range stats {
		h.Observe(sg.MaxNs - sg.MeanNs)
	}
	return h.Snapshot()
}

// WriteStragglers renders the straggler table as aligned plain text.
func WriteStragglers(w io.Writer, stats []StageStraggler) {
	if len(stats) == 0 {
		fmt.Fprintln(w, "no stage-scoped spans recorded")
		return
	}
	fmt.Fprintf(w, "%5s %6s %12s %12s %12s %6s %8s %8s\n",
		"stage", "ranks", "max_us", "mean_us", "min_us", "skew", "slowest", "gated_by")
	for _, sg := range stats {
		gate := "-"
		if sg.GatingPeer >= 0 {
			gate = strconv.Itoa(sg.GatingPeer)
		}
		fmt.Fprintf(w, "%5d %6d %12.1f %12.1f %12.1f %6.2f %8d %8s\n",
			sg.Stage, sg.Ranks,
			float64(sg.MaxNs)/1e3, float64(sg.MeanNs)/1e3, float64(sg.MinNs)/1e3,
			sg.Skew, sg.SlowestRank, gate)
	}
}
