package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"

	"stfw/internal/core"
	"stfw/internal/netsim"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/vpt"
)

// The netstat experiment: run a real learned-replay exchange over udpnet
// with the full telemetry layer attached (per-stage spans, per-link wire
// counters), then confront the netsim cost model with what was measured. It is the observability counterpart of the model sweeps:
// instead of predicting a machine we never ran on, it calibrates the model
// against the machine we did run on (loopback) and reports, stage by
// stage, how far prediction and measurement diverge. The same code path
// serves the single-process run and the -procs multi-process fleet: each
// process runs NetstatRun over its rank slice, snapshots its registry, and
// the collector merges the snapshots before BuildNetstatReport.

// NetstatConfig fixes the world the netstat experiment measures. The
// default shape is K=64 over dims [8,8] (the wide-radix shape that
// stresses per-stage fan-out), every rank shipping 256-byte frames to 8
// pseudo-random destinations.
type NetstatConfig struct {
	K     int // world size
	Dim   int // VPT dimension count (NewBalanced)
	Iters int // steady-state replay iterations
	Dests int // destinations per rank
	Bytes int // payload bytes per destination
}

// DefaultNetstat returns the standard netstat world.
func DefaultNetstat() NetstatConfig {
	return NetstatConfig{K: 64, Dim: 2, Iters: 200, Dests: 8, Bytes: 256}
}

// NetstatPayloads is the deterministic per-rank payload pattern: every
// process (and the model side) derives it independently from the same
// seed, so no cross-process coordination is needed and the plan built by
// NetstatPlan prices exactly the frames the runtime executes.
func NetstatPayloads(cfg NetstatConfig, rank int) map[int][]byte {
	rng := rand.New(rand.NewSource(int64(cfg.K)*11 + int64(rank)))
	m := map[int][]byte{}
	for len(m) < cfg.Dests {
		dst := rng.Intn(cfg.K)
		if dst == rank {
			continue
		}
		m[dst] = bytes.Repeat([]byte{byte(rank)}, cfg.Bytes)
	}
	return m
}

// NetstatTopology builds the experiment's VPT.
func NetstatTopology(cfg NetstatConfig) (*vpt.Topology, error) {
	return vpt.NewBalanced(cfg.K, cfg.Dim)
}

// NetstatPlan routes the payload pattern through the topology: the exact
// schedule the runtime will execute, priced by the model side of the
// divergence table. Payload sizes round up to 8-byte words, matching how
// the wire frames carry them.
func NetstatPlan(cfg NetstatConfig) (*core.Plan, error) {
	tp, err := NetstatTopology(cfg)
	if err != nil {
		return nil, err
	}
	sets := core.NewSendSets(cfg.K)
	for rank := 0; rank < cfg.K; rank++ {
		for dst, payload := range NetstatPayloads(cfg, rank) {
			sets.Add(rank, dst, int64((len(payload)+7)/8))
		}
	}
	if err := sets.Normalize(); err != nil {
		return nil, err
	}
	return core.BuildPlan(tp, sets)
}

// NetstatRun executes the experiment over the given comms (the full world
// in one process, or one process's rank slice in -procs mode): a learning
// exchange, then cfg.Iters instrumented steady-state replays. The registry
// collects per-stage spans of the replays it samples (via
// Persistent.Instrument), per-stage frame counters (via WrapComms), and
// per-link wire stats (via the transport's LinkStatsSource seam); the
// caller snapshots it afterwards.
func NetstatRun(cfg NetstatConfig, reg *telemetry.Registry, comms []runtime.Comm) error {
	tp, err := NetstatTopology(cfg)
	if err != nil {
		return err
	}
	stages := tp.N()
	wrapped := reg.WrapComms(comms, func(tag int) (int, bool) {
		return core.TagStage(tag, stages)
	})
	return runtime.Run(wrapped, func(c runtime.Comm) error {
		payloads := NetstatPayloads(cfg, c.Rank())
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		// Spans cover only the steady-state replays: the learning run
		// routes dynamically and records the layout, so its timing would
		// skew the per-stage measurement the model is compared against.
		p.Instrument(reg.Rank(c.Rank()))
		for i := 0; i < cfg.Iters; i++ {
			if _, err := p.Run(c, payloads); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
}

// NetstatReport is the assembled measured-vs-model view of one (possibly
// merged) netstat run.
type NetstatReport struct {
	Cfg        NetstatConfig              `json:"cfg"`
	Stragglers []telemetry.StageStraggler `json:"stragglers"`
	AlphaSec   float64                    `json:"alpha_sec"` // half the sample-weighted mean smoothed RTT
	RTTSamples int64                      `json:"rtt_samples"`
	Machine    *netsim.Machine            `json:"-"`
	Divergence []netsim.StageDivergence   `json:"divergence"`
	Snapshot   telemetry.Snapshot         `json:"-"`
}

// fleetAlpha extracts the measured one-way startup latency from a
// snapshot's link stats: the RTT-sample-weighted mean smoothed ack
// round-trip across every link in the world, halved. Zero (with zero
// samples) when the transport does not measure RTTs.
func fleetAlpha(s *telemetry.Snapshot) (alphaSec float64, samples int64) {
	var weighted float64
	for _, r := range s.Ranks {
		for _, l := range r.Links {
			if l.RTTSamples > 0 {
				weighted += float64(l.SRTTNs) * float64(l.RTTSamples)
				samples += l.RTTSamples
			}
		}
	}
	if samples == 0 {
		return 0, 0
	}
	return weighted / float64(samples) / 2 / 1e9, samples
}

// BuildNetstatReport turns a snapshot of a NetstatRun (merged across
// processes first, in fleet mode) into the divergence report: per-stage
// straggler table, wire-calibrated machine, and the measured-vs-model
// table. The measured per-stage time is the straggler maximum (the
// busiest rank's summed stage-span time) divided by the number of replays
// that rank traced — the same "stage lasts as long as its busiest process"
// convention netsim.CommTime prices.
func BuildNetstatReport(cfg NetstatConfig, snap telemetry.Snapshot) (*NetstatReport, error) {
	plan, err := NetstatPlan(cfg)
	if err != nil {
		return nil, err
	}
	rep := &NetstatReport{Cfg: cfg, Snapshot: snap, Stragglers: snap.StageStragglers()}
	measured := make([]float64, len(plan.Stages))
	seen := make([]bool, len(plan.Stages))
	for _, sg := range rep.Stragglers {
		if sg.Stage < 0 || sg.Stage >= len(measured) {
			return nil, fmt.Errorf("netstat: straggler table has stage %d outside the %d-stage plan",
				sg.Stage, len(measured))
		}
		seen[sg.Stage] = true
	}
	for d, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("netstat: no spans recorded for stage %d (telemetry not attached?)", d)
		}
	}
	for _, sg := range rep.Stragglers {
		traced := tracedBy(&snap, sg.SlowestRank)
		if traced == 0 {
			return nil, fmt.Errorf("netstat: rank %d recorded stage %d spans but traced no replay", sg.SlowestRank, sg.Stage)
		}
		measured[sg.Stage] = float64(sg.MaxNs) / float64(traced) / 1e9
	}
	rep.AlphaSec, rep.RTTSamples = fleetAlpha(&snap)
	rep.Machine, err = netsim.CalibrateMachine("loopback (wire-calibrated)", cfg.K, rep.AlphaSec, plan, measured)
	if err != nil {
		return nil, err
	}
	rep.Divergence, err = netsim.CompareStageTimes(rep.Machine, plan, measured)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// tracedBy returns the number of exchanges the given rank traced, 0 when the
// snapshot does not hold the rank.
func tracedBy(s *telemetry.Snapshot, rank int) int64 {
	for _, r := range s.Ranks {
		if r.Rank == rank {
			return r.Traced
		}
	}
	return 0
}

// RenderNetstatLinks writes the per-rank wire summary: each rank's link
// stats aggregated over its peers (SRTT sample-weighted). Ranks with no
// link stats (non-wire transports, or remote ranks absent from an
// unmerged snapshot) are skipped.
func RenderNetstatLinks(w io.Writer, s *telemetry.Snapshot) {
	fmt.Fprintf(w, "%5s %6s %9s %9s %8s %8s %6s %8s %9s %9s %9s %9s %7s\n",
		"rank", "links", "pkts_out", "pkts_in", "resends", "sack_rep", "dups",
		"srtt_us", "acks_out", "ack_supp", "stage_ack", "live_ack", "stalls")
	for _, r := range s.Ranks {
		if len(r.Links) == 0 {
			continue
		}
		var agg runtime.LinkStats
		for _, l := range r.Links {
			agg.Add(l)
		}
		srttUs := 0.0
		if agg.RTTSamples > 0 {
			srttUs = float64(agg.SRTTNs) / 1e3
		}
		fmt.Fprintf(w, "%5d %6d %9d %9d %8d %8d %6d %8.1f %9d %9d %9d %9d %7d\n",
			r.Rank, len(r.Links), agg.PktsSent, agg.PktsRecvd, agg.Resends(),
			agg.SackRepairs, agg.Dups, srttUs, agg.AcksSent, agg.AcksSuppressed,
			agg.StageAcks, agg.LivenessAcks, agg.WindowStalls)
	}
}

// RenderNetstat writes the full report: wire summary, straggler table,
// skew headline, and the measured-vs-model divergence table.
func RenderNetstat(w io.Writer, rep *NetstatReport) {
	fmt.Fprintf(w, "netstat: K=%d dim=%d, %d destinations x %dB per rank, %d replay iterations\n\n",
		rep.Cfg.K, rep.Cfg.Dim, rep.Cfg.Dests, rep.Cfg.Bytes, rep.Cfg.Iters)
	fmt.Fprintln(w, "per-rank wire stats (aggregated over links):")
	RenderNetstatLinks(w, &rep.Snapshot)
	fmt.Fprintf(w, "\nper-stage critical path (busy time summed over the traced replays, one in %d):\n",
		telemetry.SampleEvery)
	telemetry.WriteStragglers(w, rep.Stragglers)
	skew := telemetry.SkewHistogram(rep.Stragglers)
	fmt.Fprintf(w, "stage skew (max-mean busy): mean %.1fus, p90 %.1fus over %d stages\n",
		skew.Mean()/1e3, float64(skew.Quantile(0.90))/1e3, skew.Count)
	fmt.Fprintf(w, "\nmeasured vs model (alpha from %d ack RTT samples):\n", rep.RTTSamples)
	netsim.WriteDivergence(w, rep.Machine, rep.Divergence)
}
