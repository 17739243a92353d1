// Package telemetry is the live observability layer of the runtime: an
// always-compilable, near-zero-overhead instrumentation substrate that
// records what each rank actually does while an exchange executes — as
// opposed to internal/metrics (static schedule summaries), which only
// describes what a run *should* do.
//
// A Registry holds one collector per rank. Each collector keeps
//
//   - per-stage hot-path counters (frames and bytes sent, received, and
//     forwarded, barrier entries and wait time) as plain atomics, and
//   - a fixed-size ring of wall-clock spans (session phases, exchange
//     stages, replay gather/forward/deliver phases) stamped against the
//     registry's epoch.
//
// Counters are exact: every frame, forward, barrier and schedule patch is
// counted, always. Spans and the two latency histograms are sampled by
// exchange: each exchange front-end opens its exchange with Rank.Sample,
// and a rank traces its first exchange and then every SampleEvery-th one,
// whole — a traced exchange records its full span set and feeds StageNs and
// FrameSizes, an untraced one records no span and no histogram observation.
// The decision is a function of the rank's exchange count alone, so every
// rank of a world traces the same exchanges and per-stage comparisons across
// ranks compare like with like. RankSnapshot.Traced says how many exchanges
// a rank traced, the divisor for any per-exchange span average.
//
// Everything is preallocated at New: the steady-state path performs no
// locking and no allocation, only atomic adds and array stores, so the
// layer may stay enabled inside the zero-alloc iteration gate
// (TestSessionMultiplyZeroAlloc) and under benchmarks. A nil *Registry or
// nil *Rank is a valid, fully disabled collector: every method is
// nil-receiver safe, so call sites need no conditional wiring.
//
// Exporters turn a snapshot into a Chrome trace-event JSON (one track per
// rank, one slice per span — loadable in Perfetto, see WriteTrace), a
// log-scale histogram summary (WriteHistograms), or a live HTTP /debug
// endpoint (ServeDebug: expvar counters, pprof, trace download).
//
// Span rings are sized by Config.SpanCap and overwrite oldest entries when
// they wrap; counters never saturate. Counters are updated from the two
// goroutines a rank legitimately runs (main loop and the pipelined send
// worker); spans come from the main loop. Ring slots are claimed with an
// atomic cursor, so concurrent writers land on distinct slots until the
// ring wraps, though a reader racing a writer on a just-reclaimed slot may
// observe a mixed span. Snapshots are therefore advisory during a run and
// exact once the run has quiesced (e.g. after runtime.Run returns or at a
// barrier).
package telemetry

import (
	"fmt"
	"sync/atomic"
	"time"

	"stfw/internal/runtime"
)

// Kind classifies a recorded span.
type Kind uint8

// Span kinds, ordered roughly outermost to innermost: session phases
// (gather/exchange/kernel/reduce), then the compiled replay's per-stage
// forward (frame build + send) and deliver (receive + scatter) halves.
const (
	KGather Kind = iota
	KExchange
	KKernel
	KReduce
	KForward
	KDeliver
	KPatch
	numKinds
)

// String implements fmt.Stringer; the names double as trace-event slice
// names.
func (k Kind) String() string {
	switch k {
	case KGather:
		return "gather"
	case KExchange:
		return "exchange"
	case KKernel:
		return "kernel"
	case KReduce:
		return "reduce"
	case KForward:
		return "forward"
	case KDeliver:
		return "deliver"
	case KPatch:
		return "patch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Span is one recorded wall-clock interval on one rank's timeline.
type Span struct {
	Kind  Kind
	Stage int32 // communication stage, -1 when the span is not stage-scoped
	// Peer is the sender whose frame arrived last in the stage — the link
	// that gated it — on KDeliver spans; -1 on every other span and on a
	// stage that received nothing.
	Peer  int32
	Start int64 // nanoseconds since the registry epoch
	Dur   int64 // nanoseconds
}

// StageCounters are one rank's hot-path counters for one communication
// stage. Sends/Recvs count transport frames (empty frames included — their
// arrival is part of the schedule); Forwards counts store-and-forwarded
// submessages routed through this rank during the stage.
type StageCounters struct {
	Sends, SendBytes   atomic.Int64
	Recvs, RecvBytes   atomic.Int64
	Forwards, FwdBytes atomic.Int64
}

// CounterSnapshot is a plain-value copy of one stage's counters.
type CounterSnapshot struct {
	Sends, SendBytes   int64
	Recvs, RecvBytes   int64
	Forwards, FwdBytes int64
}

// Config sizes a Registry. The zero value of SpanCap selects
// DefaultSpanCap; Stages must cover the largest stage index that will be
// counted (stage indices at or above Stages fold into the last slot so a
// misconfigured mapper degrades attribution, never safety).
type Config struct {
	Ranks  int
	Stages int
	// SpanCap is the per-rank span ring capacity; the ring overwrites its
	// oldest entries once it wraps. Rounded up to a power of two so the
	// hot-path ring index is a bit mask.
	SpanCap int
}

// DefaultSpanCap is the per-rank span ring capacity when Config.SpanCap is
// zero. Sized for sampled traffic: ~100 traced exchanges of a
// three-dimensional replay, about 1,600 exchanges of history.
const DefaultSpanCap = 1024

// SampleEvery is the span sampling period: a rank traces its first exchange
// and then every SampleEvery-th one. A constant rather than a Config field,
// so that every rank of every process — a fleet merge included — samples the
// same exchanges without negotiating a period.
const SampleEvery = 16

// Registry is the world-wide collector set: one Rank collector per rank,
// a shared epoch all span timestamps are measured from, and the global
// log-scale histograms.
type Registry struct {
	epoch   time.Time
	stages  int
	spanCap int
	ranks   []Rank
}

// New creates a fully preallocated registry. Ranks and Stages must be
// positive.
func New(cfg Config) (*Registry, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("telemetry: %d ranks", cfg.Ranks)
	}
	if cfg.Stages < 1 {
		return nil, fmt.Errorf("telemetry: %d stages", cfg.Stages)
	}
	if cfg.SpanCap == 0 {
		cfg.SpanCap = DefaultSpanCap
	}
	if cfg.SpanCap < 1 {
		return nil, fmt.Errorf("telemetry: span capacity %d", cfg.SpanCap)
	}
	// Round the ring up to a power of two so the hot-path ring index is a
	// mask rather than an integer division.
	cap := 1
	for cap < cfg.SpanCap {
		cap <<= 1
	}
	g := &Registry{epoch: time.Now(), stages: cfg.Stages, spanCap: cap}
	g.ranks = make([]Rank, cfg.Ranks)
	for r := range g.ranks {
		g.ranks[r].reg = g
		g.ranks[r].rank = r
		g.ranks[r].epoch = g.epoch
		g.ranks[r].stages = make([]StageCounters, cfg.Stages)
		g.ranks[r].spans = make([]Span, cap)
	}
	return g, nil
}

// MustNew is New for statically valid configurations.
func MustNew(cfg Config) *Registry {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Ranks returns the world size the registry was built for, 0 when nil.
func (g *Registry) Ranks() int {
	if g == nil {
		return 0
	}
	return len(g.ranks)
}

// Stages returns the per-rank stage slot count, 0 when nil.
func (g *Registry) Stages() int {
	if g == nil {
		return 0
	}
	return g.stages
}

// Epoch returns the instant span offsets are measured from.
func (g *Registry) Epoch() time.Time {
	if g == nil {
		return time.Time{}
	}
	return g.epoch
}

// Rank returns rank r's collector, or nil when the registry is nil or r is
// out of range — so `reg.Rank(c.Rank())` is always safe to wire through.
func (g *Registry) Rank(r int) *Rank {
	if g == nil || r < 0 || r >= len(g.ranks) {
		return nil
	}
	return &g.ranks[r]
}

// Rank is one rank's collector. All methods are nil-receiver safe and
// allocation-free.
type Rank struct {
	reg    *Registry
	rank   int
	epoch  time.Time // reg.epoch, copied here to spare a pointer chase per span
	stages []StageCounters

	Barriers  atomic.Int64
	BarrierNs atomic.Int64

	// Patch counters: dynamic-sparsity schedule patches applied on this
	// rank, the nanoseconds spent applying them, and the cumulative count
	// of stages they dirtied (see core.Persistent.Patch).
	Patches          atomic.Int64
	PatchNs          atomic.Int64
	PatchDirtyStages atomic.Int64

	// FrameSizes observes the byte length of every frame this rank sends
	// through a wrapped communicator while it is not in an untraced
	// exchange; StageNs observes the duration of its stage-scoped spans
	// (KForward, KDeliver), so both are sampled with the spans. The
	// histograms are per-rank — not registry-global — so hot-path
	// observations never contend on shared cache lines; Snapshot merges them
	// world-wide.
	FrameSizes Histogram
	StageNs    Histogram

	spans  []Span
	cursor atomic.Int64 // total spans ever recorded; ring index = cursor & (cap-1)

	// exchanges counts the exchanges opened with Sample. Every sampling
	// decision is a function of it alone; atomic because snapshots read it
	// while the rank runs.
	exchanges atomic.Int64

	// linkSrc holds the transport's per-link wire-stats source for this
	// rank (runtime.LinkStatsSource), registered by WrapComm when the
	// wrapped transport exposes one. Boxed so repeated registrations with
	// different transports keep a single concrete type in the atomic.Value.
	linkSrc atomic.Value // of linkSrcBox
}

type linkSrcBox struct{ src runtime.LinkStatsSource }

// stageSlot folds out-of-range stage indices into the edge slots so a
// mapper bug can at worst misattribute, never index out of bounds.
func (t *Rank) stageSlot(stage int) *StageCounters {
	if stage < 0 {
		stage = 0
	}
	if stage >= len(t.stages) {
		stage = len(t.stages) - 1
	}
	return &t.stages[stage]
}

// Sample opens this rank's next exchange and decides whether it is traced:
// the first exchange and every SampleEvery-th after it are. It returns t for
// a traced exchange and nil otherwise, so a front-end records its spans
// through the returned handle with no branch of its own — the nil-safe span
// methods drop an untraced exchange's spans whole. Counters go through t
// itself and stay exact. Called once per exchange, from the rank's own
// goroutine.
func (t *Rank) Sample() *Rank {
	if t == nil {
		return nil
	}
	if (t.exchanges.Add(1)-1)%SampleEvery != 0 {
		return nil
	}
	return t
}

// Sampled reports whether this rank's latest exchange was traced; false
// before its first exchange. A caller wrapping an exchange in spans of its
// own (spmv.Session's phases) records them only when this holds.
func (t *Rank) Sampled() bool {
	if t == nil {
		return false
	}
	n := t.exchanges.Load()
	return n > 0 && (n-1)%SampleEvery == 0
}

// sampledOut reports whether this rank is in an exchange Sample left
// untraced (or last ran one). Before its first exchange nothing is sampled
// out.
func (t *Rank) sampledOut() bool {
	n := t.exchanges.Load()
	return n > 0 && (n-1)%SampleEvery != 0
}

// traced is the number of exchanges Sample has traced on this rank.
func (t *Rank) traced() int64 {
	return (t.exchanges.Load() + SampleEvery - 1) / SampleEvery
}

// CountSend records one sent frame of the given byte length in the stage's
// counters and, unless the current exchange is untraced, in the frame-size
// histogram.
func (t *Rank) CountSend(stage, bytes int) {
	if t == nil {
		return
	}
	s := t.stageSlot(stage)
	s.Sends.Add(1)
	s.SendBytes.Add(int64(bytes))
	if !t.sampledOut() {
		t.FrameSizes.Observe(int64(bytes))
	}
}

// CountRecv records one received frame of the given byte length.
func (t *Rank) CountRecv(stage, bytes int) {
	if t == nil {
		return
	}
	s := t.stageSlot(stage)
	s.Recvs.Add(1)
	s.RecvBytes.Add(int64(bytes))
}

// CountForward records store-and-forwarded submessages routed through this
// rank in the given stage: subs submessages totalling the given payload
// bytes.
func (t *Rank) CountForward(stage, subs, bytes int) {
	if t == nil {
		return
	}
	s := t.stageSlot(stage)
	s.Forwards.Add(int64(subs))
	s.FwdBytes.Add(int64(bytes))
}

// CountBarrier records one barrier entry and the nanoseconds spent waiting
// in it.
func (t *Rank) CountBarrier(ns int64) {
	if t == nil {
		return
	}
	t.Barriers.Add(1)
	t.BarrierNs.Add(ns)
}

// CountPatch records one applied schedule patch: the number of stages it
// dirtied and the wall-clock duration of applying it. Patching is a
// control-plane event (it happens between iterations, not inside them), so
// the latency lands in the counters and a KPatch span rather than the
// stage-scoped histograms.
func (t *Rank) CountPatch(dirtyStages int, d time.Duration) {
	if t == nil {
		return
	}
	t.Patches.Add(1)
	t.PatchNs.Add(d.Nanoseconds())
	t.PatchDirtyStages.Add(int64(dirtyStages))
	now := time.Now()
	t.SpanBetween(KPatch, -1, now.Add(-d), now)
}

// SetLinkSource registers the transport's per-link wire-stats source for
// this rank; a later Snapshot materializes it into RankSnapshot.Links.
// Registering nil (or registering on a nil Rank) is a no-op, so wiring is
// unconditional at wrap time.
func (t *Rank) SetLinkSource(src runtime.LinkStatsSource) {
	if t == nil || src == nil {
		return
	}
	t.linkSrc.Store(linkSrcBox{src: src})
}

// LinkStats returns the registered transport's current per-link wire
// snapshot, nil when no source is registered (or the transport tracks
// nothing).
func (t *Rank) LinkStats() []runtime.LinkStats {
	if t == nil {
		return nil
	}
	box, _ := t.linkSrc.Load().(linkSrcBox)
	if box.src == nil {
		return nil
	}
	return box.src.LinkStats()
}

// SpanMark records a span covering [prev, now) and returns now, letting
// back-to-back phases share a single clock read per boundary — the end of
// one phase is the start of the next. This is the hot-path form, and the
// compiled replay's single instrumentation seam: it threads one mark
// through its per-stage phase sequence instead of reading the clock twice
// at every transition. peer is the span's Span.Peer (-1 for none).
func (t *Rank) SpanMark(k Kind, stage, peer int, prev time.Time) time.Time {
	if t == nil {
		return prev
	}
	now := time.Now()
	t.record(k, stage, peer, prev, now)
	return now
}

// SpanBetween records a span covering [start, end], naming no peer.
func (t *Rank) SpanBetween(k Kind, stage int, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(k, stage, -1, start, end)
}

// record stores one span in the ring. Offsets are taken against the
// registry epoch through the monotonic clock, so spans from different ranks
// land on one consistent timeline.
func (t *Rank) record(k Kind, stage, peer int, start, end time.Time) {
	sp := Span{
		Kind:  k,
		Stage: int32(stage),
		Peer:  int32(peer),
		Start: start.Sub(t.epoch).Nanoseconds(),
		Dur:   end.Sub(start).Nanoseconds(),
	}
	if stage >= 0 {
		t.StageNs.Observe(sp.Dur)
	}
	i := t.cursor.Add(1) - 1
	t.spans[i&int64(len(t.spans)-1)] = sp // len is a power of two
}

// SpanCount returns the total number of spans ever recorded on this rank
// (including entries the ring has since overwritten).
func (t *Rank) SpanCount() int64 {
	if t == nil {
		return 0
	}
	return t.cursor.Load()
}

// Spans copies the retained spans oldest-first into a fresh slice. At most
// the ring capacity's worth of the most recent spans survive.
func (t *Rank) Spans() []Span {
	if t == nil {
		return nil
	}
	n := t.cursor.Load()
	cp := int64(len(t.spans))
	if n <= cp {
		return append([]Span(nil), t.spans[:n]...)
	}
	out := make([]Span, 0, cp)
	for i := n - cp; i < n; i++ {
		out = append(out, t.spans[i%cp])
	}
	return out
}

// Counters copies stage s's counters; the zero snapshot when out of range.
func (t *Rank) Counters(stage int) CounterSnapshot {
	if t == nil || stage < 0 || stage >= len(t.stages) {
		return CounterSnapshot{}
	}
	c := &t.stages[stage]
	return CounterSnapshot{
		Sends: c.Sends.Load(), SendBytes: c.SendBytes.Load(),
		Recvs: c.Recvs.Load(), RecvBytes: c.RecvBytes.Load(),
		Forwards: c.Forwards.Load(), FwdBytes: c.FwdBytes.Load(),
	}
}

// RankSnapshot is the plain-value state of one rank at snapshot time.
type RankSnapshot struct {
	Rank             int               `json:"rank"`
	Stages           []CounterSnapshot `json:"stages"`
	Barriers         int64             `json:"barriers"`
	BarrierNs        int64             `json:"barrier_ns"`
	Patches          int64             `json:"patches,omitempty"`
	PatchNs          int64             `json:"patch_ns,omitempty"`
	PatchDirtyStages int64             `json:"patch_dirty_stages,omitempty"`
	// Links is the transport's per-link wire snapshot (resends, SACK
	// repairs, smoothed RTT, ack-suppression classes, ...), present when a
	// LinkStatsSource was registered via WrapComm / SetLinkSource.
	Links []runtime.LinkStats `json:"links,omitempty"`
	// EpochOffsetNs places this rank's span timeline on the fleet's world
	// epoch: worldTime = span.Start + EpochOffsetNs. Zero within a single
	// process; set by MergeSnapshots when snapshots from processes with
	// different registry epochs are folded together.
	EpochOffsetNs int64  `json:"epoch_offset_ns,omitempty"`
	Spans         []Span `json:"-"`
	SpanCount     int64  `json:"span_count"`
	// Traced is the number of exchanges this rank traced (see Sample): the
	// spans' busy time divided by Traced is a per-exchange figure.
	Traced int64 `json:"traced"`
}

// Snapshot is a plain-value copy of the whole registry, suitable for
// export, JSON encoding, or cross-goroutine inspection. FrameSizes and
// StageNs are the world-wide merges of the per-rank histograms.
type Snapshot struct {
	Epoch      time.Time      `json:"epoch"`
	Ranks      []RankSnapshot `json:"ranks"`
	FrameSizes HistSnapshot   `json:"frame_sizes"`
	StageNs    HistSnapshot   `json:"stage_ns"`
}

// Snapshot copies every rank's counters and spans. Nil-safe (returns an
// empty snapshot).
func (g *Registry) Snapshot() Snapshot {
	if g == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Epoch: g.epoch,
		Ranks: make([]RankSnapshot, len(g.ranks)),
	}
	for r := range g.ranks {
		t := &g.ranks[r]
		rs := RankSnapshot{
			Rank:             r,
			Stages:           make([]CounterSnapshot, len(t.stages)),
			Barriers:         t.Barriers.Load(),
			BarrierNs:        t.BarrierNs.Load(),
			Patches:          t.Patches.Load(),
			PatchNs:          t.PatchNs.Load(),
			PatchDirtyStages: t.PatchDirtyStages.Load(),
			Links:            t.LinkStats(),
			Spans:            t.Spans(),
			SpanCount:        t.SpanCount(),
			Traced:           t.traced(),
		}
		for d := range t.stages {
			rs.Stages[d] = t.Counters(d)
		}
		s.Ranks[r] = rs
		s.FrameSizes.merge(t.FrameSizes.Snapshot())
		s.StageNs.merge(t.StageNs.Snapshot())
	}
	return s
}

// Totals sums a snapshot's counters across ranks and stages. A nil
// snapshot (disabled telemetry) totals to zero.
func (s *Snapshot) Totals() CounterSnapshot {
	if s == nil {
		return CounterSnapshot{}
	}
	var out CounterSnapshot
	for _, r := range s.Ranks {
		for _, c := range r.Stages {
			out.Sends += c.Sends
			out.SendBytes += c.SendBytes
			out.Recvs += c.Recvs
			out.RecvBytes += c.RecvBytes
			out.Forwards += c.Forwards
			out.FwdBytes += c.FwdBytes
		}
	}
	return out
}
