package core

import (
	"sort"

	"stfw/internal/vpt"
)

// Frame is one direct message of the schedule: From sends Words words of
// submessage payload to To (a dimension-d neighbor) in some stage.
type Frame struct {
	From  int
	To    int
	Words int64
	Subs  int // number of submessages aggregated in the frame
}

// Plan is the exact communication schedule the store-and-forward scheme
// produces for given send sets on a given topology, computed without
// executing anything. Because routing is deterministic (dimension-ordered
// digit fixing), the plan is ground truth: the executing runtime performs
// exactly these frames. The netsim package prices a Plan on a machine
// profile; the metrics package summarizes it.
type Plan struct {
	Topo   *vpt.Topology
	Stages [][]Frame // Stages[d] = frames of communication stage d, sorted (From, To)

	// Per-rank totals over all stages. Only nonempty frames are counted,
	// matching the paper's measured message counts (its bound sum(k_d - 1)
	// is attained only when every neighbor buffer is nonempty). A frame is
	// nonempty when it carries a submessage, of zero words or more.
	SentMsgs  []int
	SentWords []int64
	RecvMsgs  []int
	RecvWords []int64

	// MaxBufferWords[p] is the peak number of payload words resident at
	// rank p at any stage boundary: words held in forward buffers plus
	// words received in the stage. The paper's buffer-size metric also
	// counts the application's original send/receive buffers; callers add
	// those (see metrics.BufferSizes).
	MaxBufferWords []int64

	// TotalWords is the sum of Words over all frames: the forwarded volume
	// the paper's vavg metric averages over ranks.
	TotalWords int64
	// TotalMsgs is the number of nonempty frames across all stages.
	TotalMsgs int
	// DeliveredWords is the payload that reached destinations; equals the
	// send sets' TotalWords (every submessage is delivered exactly once).
	DeliveredWords int64
}

// routeEntry is an aggregated bundle of payload currently resident at a
// holder and destined for a single rank. Submessages with the same (holder,
// dst) travel together for the rest of the schedule, so aggregation is
// lossless for counts and volumes.
type routeEntry struct {
	holder int32
	dst    int32
	words  int64
	subs   int32
}

// BuildPlan routes the send sets through the topology and returns the exact
// schedule. Send sets should be Normalized first. For the direct topology
// T_1(K) the plan degenerates to the baseline: one stage holding exactly the
// original messages.
func BuildPlan(t *vpt.Topology, s *SendSets) (*Plan, error) {
	if err := s.ValidateTopology(t); err != nil {
		return nil, err
	}
	K := t.Size()
	n := t.N()
	p := &Plan{
		Topo:           t,
		Stages:         make([][]Frame, n),
		SentMsgs:       make([]int, K),
		SentWords:      make([]int64, K),
		RecvMsgs:       make([]int, K),
		RecvWords:      make([]int64, K),
		MaxBufferWords: make([]int64, K),
	}

	// Live routing state: one entry per (holder, dst) bundle.
	var entries []routeEntry
	for src, set := range s.Sets {
		for _, pr := range set {
			p.DeliveredWords += pr.Words
			if pr.Dst != src {
				entries = append(entries, routeEntry{holder: int32(src), dst: int32(pr.Dst), words: pr.Words, subs: 1})
			}
		}
	}

	held := make([]int64, K) // payload words resident per rank (in fwbuf)
	for _, e := range entries {
		held[e.holder] += e.words
	}
	for q := 0; q < K; q++ {
		p.MaxBufferWords[q] = held[q]
	}

	for d := 0; d < n; d++ {
		// Group the entries that move in this stage by (from, to) frame.
		type key struct{ from, to int32 }
		frames := map[key]*Frame{}
		for i := range entries {
			e := &entries[i]
			next := t.RouteNext(int(e.holder), int(e.dst), d)
			if next == int(e.holder) {
				continue // stored, not forwarded, this stage
			}
			k := key{e.holder, int32(next)}
			f := frames[k]
			if f == nil {
				f = &Frame{From: int(e.holder), To: next}
				frames[k] = f
			}
			f.Words += e.words
			f.Subs += int(e.subs)
			held[e.holder] -= e.words
			held[next] += e.words
			e.holder = int32(next)
		}
		// Merge bundles that landed on the same (holder, dst); keeps the
		// entry count bounded by the number of live (holder, dst) pairs.
		entries = mergeEntries(entries)

		stage := make([]Frame, 0, len(frames))
		for _, f := range frames {
			stage = append(stage, *f)
		}
		sort.Slice(stage, func(i, j int) bool {
			if stage[i].From != stage[j].From {
				return stage[i].From < stage[j].From
			}
			return stage[i].To < stage[j].To
		})
		p.Stages[d] = stage
		for _, f := range stage {
			p.SentMsgs[f.From]++
			p.SentWords[f.From] += f.Words
			p.RecvMsgs[f.To]++
			p.RecvWords[f.To] += f.Words
			p.TotalWords += f.Words
			p.TotalMsgs++
		}
		// Residency at the end of the stage, with delivered bundles still
		// in the buffers, is the per-stage peak.
		for q := 0; q < K; q++ {
			if held[q] > p.MaxBufferWords[q] {
				p.MaxBufferWords[q] = held[q]
			}
		}

		// Drop delivered bundles (holder == dst) from the live set.
		live := entries[:0]
		for _, e := range entries {
			if e.holder == e.dst {
				held[e.holder] -= e.words
				continue
			}
			live = append(live, e)
		}
		entries = live
	}
	return p, nil
}

// mergeEntries combines bundles with identical (holder, dst).
func mergeEntries(entries []routeEntry) []routeEntry {
	if len(entries) < 2 {
		return entries
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].holder != entries[j].holder {
			return entries[i].holder < entries[j].holder
		}
		return entries[i].dst < entries[j].dst
	})
	out := entries[:1]
	for _, e := range entries[1:] {
		last := &out[len(out)-1]
		if last.holder == e.holder && last.dst == e.dst {
			last.words += e.words
			last.subs += e.subs
		} else {
			out = append(out, e)
		}
	}
	return out
}

// BuildDirectPlan returns the baseline (BL) plan: the single-stage schedule
// of the direct topology T_1(K), in which every original message is one
// frame. It is equivalent to BuildPlan on vpt.Direct(K) but cheaper.
func BuildDirectPlan(s *SendSets) (*Plan, error) {
	t, err := vpt.Direct(s.K)
	if err != nil {
		return nil, err
	}
	K := s.K
	p := &Plan{
		Topo:           t,
		Stages:         make([][]Frame, 1),
		SentMsgs:       make([]int, K),
		SentWords:      make([]int64, K),
		RecvMsgs:       make([]int, K),
		RecvWords:      make([]int64, K),
		MaxBufferWords: make([]int64, K),
	}
	var stage []Frame
	for src, set := range s.Sets {
		for _, pr := range set {
			p.DeliveredWords += pr.Words
			if pr.Dst == src {
				continue
			}
			stage = append(stage, Frame{From: src, To: pr.Dst, Words: pr.Words, Subs: 1})
			p.SentMsgs[src]++
			p.SentWords[src] += pr.Words
			p.RecvMsgs[pr.Dst]++
			p.RecvWords[pr.Dst] += pr.Words
			p.TotalWords += pr.Words
			p.TotalMsgs++
		}
	}
	sort.Slice(stage, func(i, j int) bool {
		if stage[i].From != stage[j].From {
			return stage[i].From < stage[j].From
		}
		return stage[i].To < stage[j].To
	})
	p.Stages[0] = stage
	// The baseline has no store-and-forward buffers; its buffer footprint
	// is only the original send/receive payloads, which metrics.Summarize
	// accounts separately. MaxBufferWords stays zero.
	return p, nil
}
