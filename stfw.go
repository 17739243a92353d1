// Package stfw is a Go implementation of the message-regularization scheme
// of Selvitopi & Aykanat, "Regularizing Irregularly Sparse Point-to-point
// Communications" (SC '19): processes are organized into a virtual process
// topology (VPT) T_n(k1,...,kn) and an arbitrary set of point-to-point
// messages is realized by an n-stage store-and-forward algorithm in which a
// process talks only to its dimension-d neighbors in stage d. The maximum
// per-process message count drops from O(K) to sum_d (k_d - 1) — as low as
// lg K — at the price of increased communication volume, a trade-off
// controlled by the topology dimension.
//
// The package is a facade over the internal packages:
//
//   - topology construction and analysis (internal/vpt, internal/core)
//   - the store-and-forward exchange: a one-shot Exchange, and a Persistent
//     whose learning run is that same exchange and whose replays run the
//     learned pattern as a compiled program, over pluggable transports
//     (internal/runtime, internal/transport/...)
//   - exact static planning of a schedule's message counts, volumes and
//     buffer usage without executing it (internal/core)
//   - machine cost models that price a schedule on BlueGene/Q-, Cray XK7-
//     and Cray XC40-like networks (internal/netsim)
//
// See the examples directory for runnable end-to-end programs and
// cmd/stfwbench for the harness that regenerates the paper's tables and
// figures.
package stfw

import (
	"stfw/internal/core"
	"stfw/internal/metrics"
	"stfw/internal/netsim"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/vpt"
)

// Topology is a virtual process topology (re-exported from the internal
// implementation; see NewTopology, BalancedTopology, DirectTopology).
type Topology = vpt.Topology

// Comm is one rank's endpoint into a world of ranks; see LocalWorld and
// TCPWorld for in-process constructors.
type Comm = runtime.Comm

// Delivered carries the payloads an exchange delivered to a rank.
type Delivered = core.Delivered

// NewTopology builds a VPT with explicit dimension sizes k_1..k_n (each at
// least 2).
func NewTopology(dims ...int) (*Topology, error) { return vpt.New(dims...) }

// BalancedTopology builds the paper's optimal n-dimensional VPT for a
// power-of-two K: dimension sizes within a factor of two of each other,
// minimizing the message-count bound sum_d (k_d - 1).
func BalancedTopology(K, n int) (*Topology, error) { return vpt.NewBalanced(K, n) }

// DirectTopology is the 1-dimensional VPT in which every pair of processes
// may communicate directly; the exchange degenerates to the baseline.
func DirectTopology(K int) (*Topology, error) { return vpt.Direct(K) }

// MaxTopologyDim returns lg2(K), the highest VPT dimension available for a
// power-of-two K (the hypercube).
func MaxTopologyDim(K int) int { return vpt.MaxDim(K) }

// Exchange performs the store-and-forward exchange (Algorithm 1 of the
// paper) collectively on all ranks of c: each rank contributes the payloads
// it wants delivered (destination rank -> bytes) and receives the payloads
// destined for it. The per-rank nonempty message count is bounded by
// sum_d (k_d - 1). It is the learning run of NewPersistent with the
// learned pattern dropped: call NewPersistent instead when the same
// pattern repeats.
func Exchange(c Comm, t *Topology, payloads map[int][]byte) (*Delivered, error) {
	return core.Exchange(c, t, payloads)
}

// DiscoverSources lets a rank learn which ranks will send to it when the
// receive side of the pattern is unknown, using a regularized exchange of
// empty announcements.
func DiscoverSources(c Comm, dests []int) ([]int, error) {
	return core.CountExchange(c, dests)
}

// Persistent is a reusable exchange for a fixed communication pattern: the
// learning run records the store-and-forward frame layout, and replays run
// it as a compiled program that skips all routing decisions and writes
// every frame in place (arrival-order receives, pooled frames; see
// DESIGN.md §6 and §8). Made for iterative applications where the same
// exchange repeats every step. Run returns a Delivered the Persistent owns
// and overwrites on the next Run (a steady-state Run allocates nothing);
// copy what must outlive it.
type Persistent = core.Persistent

// NewPersistent performs the learning exchange and returns both its
// deliveries and the reusable pattern; call Run on the result for
// subsequent iterations with fresh payload bytes. The learned destinations
// and payload lengths are Run's contract: every replay must send to the
// same destinations, each payload as long as it was when learned. A replay
// that breaks it fails on every rank, not only on the one that broke it.
func NewPersistent(c Comm, t *Topology, payloads map[int][]byte) (*Persistent, *Delivered, error) {
	return core.NewPersistent(c, t, payloads)
}

// LocalWorld creates K ranks connected by in-process channels, the fastest
// way to run the algorithm inside one OS process (tests, benchmarks,
// simulations).
func LocalWorld(K int) (*chanpt.World, error) { return chanpt.NewWorld(K, 2) }

// TCPWorld creates K ranks connected by real TCP sockets on the loopback
// interface.
func TCPWorld(K int) (*tcpnet.World, error) { return tcpnet.NewWorld(K) }

// SendSets declares, for planning purposes, who sends how many 8-byte words
// to whom.
type SendSets = core.SendSets

// NewSendSets creates empty send sets for K ranks; fill with Add and call
// Normalize before planning.
func NewSendSets(K int) *SendSets { return core.NewSendSets(K) }

// Plan is the exact schedule the store-and-forward scheme produces for
// given send sets: per-stage frames, per-rank message counts, volumes, and
// buffer occupancy, computed without executing anything.
type Plan = core.Plan

// BuildPlan routes the send sets through the topology; use a
// DirectTopology plan (or BuildDirectPlan) for the baseline.
func BuildPlan(t *Topology, s *SendSets) (*Plan, error) { return core.BuildPlan(t, s) }

// BuildDirectPlan returns the baseline schedule without a topology.
func BuildDirectPlan(s *SendSets) (*Plan, error) { return core.BuildDirectPlan(s) }

// Summary carries the paper's per-run metrics (maximum/average message
// count, average volume, buffer bytes; times filled when priced on a
// Machine).
type Summary = metrics.Summary

// Summarize computes the metric summary of a plan.
func Summarize(scheme string, p *Plan, s *SendSets) (Summary, error) {
	return metrics.Summarize(scheme, p, s)
}

// Machine is a priced network model; see BlueGeneQ, CrayXK7, CrayXC40.
type Machine = netsim.Machine

// BlueGeneQ returns a BlueGene/Q-like profile (5D torus) sized for K ranks.
func BlueGeneQ(K int) (*Machine, error) { return netsim.BlueGeneQ(K) }

// CrayXK7 returns a Cray XK7-like profile (3D torus, Gemini).
func CrayXK7(K int) (*Machine, error) { return netsim.CrayXK7(K) }

// CrayXC40 returns a Cray XC40-like profile (Dragonfly, Aries).
func CrayXC40(K int) (*Machine, error) { return netsim.CrayXC40(K) }

// CommTime prices a schedule on a machine model (seconds).
func CommTime(m *Machine, p *Plan) (float64, error) { return netsim.CommTime(m, p) }

// MessageBound returns the per-process upper bound on messages sent by the
// store-and-forward scheme on t: sum_d (k_d - 1).
func MessageBound(t *Topology) int { return core.MaxMessageBound(t) }

// VolumeBlowup returns the exact ratio of store-and-forward volume to
// direct volume for a complete exchange on a uniform k^n topology
// (Section 4 of the paper: 3.01 for T4 at K=256, 4.02 for T8, 1.88 for T2).
func VolumeBlowup(k, n int) float64 { return core.VolumeBlowup(k, n) }
