// Differential conformance suite: every front-end of the stage machine —
// Exchange, DirectExchange, Persistent, compiled Replay — must produce
// byte-identical deliveries on every supported transport, for every
// topology shape. Each cell runs a seeded exchange and compares the full
// Delivered payloads of every rank against a reference computed directly
// from the send sets. Every front-end runs twice: once with the transport's
// own arrival-order matcher and once behind forceOrdered, which hides the
// matcher so every receive takes runtime.RecvAnyOf's fixed-order fallback.
package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"stfw/internal/core"
	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

// confTelemetry switches the whole suite to run with the live telemetry
// layer attached (wrapped comms). The CI telemetry
// job sets STFW_TELEMETRY=1 and runs the suite under -race, proving the
// instrumentation neither perturbs results nor races with the engines.
var confTelemetry = os.Getenv("STFW_TELEMETRY") != ""

// confInstrument wraps the world's comms in counting wrappers when
// STFW_TELEMETRY is set and returns the registry (nil when disabled).
func confInstrument(t *testing.T, comms []runtime.Comm, stages int) *telemetry.Registry {
	t.Helper()
	if !confTelemetry {
		return nil
	}
	reg, err := telemetry.New(telemetry.Config{Ranks: len(comms), Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	reg.WrapComms(comms, func(tag int) (int, bool) {
		return core.TagStage(tag, stages)
	})
	return reg
}

// confCheckTelemetry asserts the collectors saw the run and that the span
// rings export a structurally valid Perfetto trace.
func confCheckTelemetry(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	if reg == nil {
		return
	}
	s := reg.Snapshot()
	if tot := s.Totals(); tot.Sends == 0 || tot.Recvs == 0 {
		t.Fatalf("telemetry recorded no traffic: %+v", tot)
	}
	var buf bytes.Buffer
	if err := reg.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// confPayload derives a deterministic, per-(src,dst) payload with a length
// that is intentionally not a multiple of 8, exercising the codec on
// unaligned data.
func confPayload(src, dst int) []byte {
	n := 1 + (src*31+dst*7)%45
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(src*17 + dst*29 + i*13)
	}
	return b
}

// confSendSets builds a seeded irregular pattern: a few heavy ranks with
// near-complete send lists plus light random traffic, mirroring the
// hot-spot patterns of the paper's experiments.
func confSendSets(seed int64, K int) map[int][]int {
	rng := rand.New(rand.NewSource(seed))
	dests := make(map[int][]int, K)
	for h := 0; h < 2; h++ {
		src := rng.Intn(K)
		for dst := 0; dst < K; dst++ {
			if dst != src && rng.Intn(4) != 0 {
				dests[src] = append(dests[src], dst)
			}
		}
	}
	for src := 0; src < K; src++ {
		for l := 0; l < 2; l++ {
			if dst := rng.Intn(K); dst != src {
				dests[src] = append(dests[src], dst)
			}
		}
	}
	for src, ds := range dests { // dedup
		seen := map[int]bool{}
		out := ds[:0]
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
		dests[src] = out
	}
	return dests
}

// refDeliveries computes what every rank must receive, sorted the way
// Exchange sorts (by Src, then Dst — Dst is constant per rank here).
func refDeliveries(K int, dests map[int][]int) [][]msg.Submessage {
	ref := make([][]msg.Submessage, K)
	for src := 0; src < K; src++ { // ascending src = sorted order
		for _, dst := range dests[src] {
			ref[dst] = append(ref[dst], msg.Submessage{Src: src, Dst: dst, Data: confPayload(src, dst)})
		}
	}
	return ref
}

// runConformance executes one table cell over the given communicators and
// checks byte-identical deliveries.
func runConformance(t *testing.T, comms []runtime.Comm, tp *vpt.Topology, dests map[int][]int) {
	t.Helper()
	K := len(comms)
	reg := confInstrument(t, comms, tp.N())
	got := make([]*core.Delivered, K)
	err := runtime.Run(comms, func(c runtime.Comm) error {
		payloads := map[int][]byte{}
		for _, dst := range dests[c.Rank()] {
			payloads[dst] = confPayload(c.Rank(), dst)
		}
		d, err := core.Exchange(c, tp, payloads)
		if err != nil {
			return err
		}
		got[c.Rank()] = d
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	confCheckTelemetry(t, reg)
	ref := refDeliveries(K, dests)
	for q := 0; q < K; q++ {
		if len(got[q].Subs) != len(ref[q]) {
			t.Fatalf("rank %d: %d deliveries, want %d", q, len(got[q].Subs), len(ref[q]))
		}
		for i, sub := range got[q].Subs {
			w := ref[q][i]
			if sub.Src != w.Src || sub.Dst != w.Dst || !bytes.Equal(sub.Data, w.Data) {
				t.Fatalf("rank %d delivery %d: got (%d->%d, %x), want (%d->%d, %x)",
					q, i, sub.Src, sub.Dst, sub.Data, w.Src, w.Dst, w.Data)
			}
		}
	}
}

// conformanceTopologies enumerates the VPT shapes of the suite: every
// balanced dimension for the power-of-two sizes, plus mixed-radix factored
// topologies for non-power-of-two K.
func conformanceTopologies(t *testing.T) []*vpt.Topology {
	t.Helper()
	var tps []*vpt.Topology
	for _, K := range []int{8, 16, 64} {
		for n := 1; n <= vpt.MaxDim(K); n++ {
			tp, err := vpt.NewBalanced(K, n)
			if err != nil {
				t.Fatal(err)
			}
			tps = append(tps, tp)
		}
	}
	for _, c := range []struct{ K, n int }{{12, 2}, {18, 2}, {60, 3}} {
		tp, err := vpt.NewFactored(c.K, c.n)
		if err != nil {
			t.Fatal(err)
		}
		tps = append(tps, tp)
	}
	return tps
}

// forceOrdered hides the transport's arrival-order matcher: RecvAnyOf
// reports ErrNoRecvAny, so runtime.RecvAnyOf degrades to fixed-order
// targeted receives. Everything else is the transport's own answer
// (runtime.Passthrough), so udpnet keeps its hinted flow control and frame
// ownership still reflects the underlying transport in this leg.
type forceOrdered struct{ runtime.Passthrough }

func (forceOrdered) RecvAnyOf(int, []int) (int, []byte, error) {
	return -1, nil, runtime.ErrNoRecvAny
}

// forceOrderedComms wraps every endpoint of a world in place.
func forceOrderedComms(comms []runtime.Comm) []runtime.Comm {
	for i, c := range comms {
		comms[i] = forceOrdered{runtime.Passthrough{Comm: c}}
	}
	return comms
}

func orderName(fixed bool) string {
	if fixed {
		return "fixed"
	}
	return "arrival"
}

// confWorld builds a K-rank world on the named transport, with teardown
// registered on t. buffer is chanpt's per-pair depth. "hier" is chanpt
// carrying intra-node pairs and udpnet carrying inter-node pairs under a
// two-node split, which is deliberately not aligned with a VPT digit split
// for most shapes, so single stages carry frames on both sub-transports and
// the cross-sub arbitration path runs.
func confWorld(t *testing.T, transport string, K, buffer int) []runtime.Comm {
	t.Helper()
	switch transport {
	case "chanpt":
		w, err := chanpt.NewWorld(K, buffer)
		if err != nil {
			t.Fatal(err)
		}
		return w.Comms()
	case "tcpnet":
		w, err := tcpnet.NewWorld(K)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		return w.Comms()
	case "udpnet":
		w, err := udpnet.NewWorld(K)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		return w.Comms()
	case "hier":
		half := (K + 1) / 2
		hw, err := hier.New(hier.Config{
			Inner:  confWorld(t, "chanpt", K, buffer),
			Outer:  confWorld(t, "udpnet", K, buffer),
			NodeOf: func(r int) int { return r / half },
		})
		if err != nil {
			t.Fatal(err)
		}
		return hw.Comms()
	}
	t.Fatalf("unknown transport %q", transport)
	return nil
}

// confComms is confWorld for one leg of a cell: the transport's own
// matcher, or the fixed-order fallback behind forceOrdered.
func confComms(t *testing.T, transport string, K int, fixed bool) []runtime.Comm {
	t.Helper()
	comms := confWorld(t, transport, K, 2)
	if fixed {
		forceOrderedComms(comms)
	}
	return comms
}

// exchangeCells runs the Exchange front-end over every conformance shape on
// one transport, both receive orders. Every world is VerifyWorld-gated so a
// schedule bug is reported as such, not as a transport failure.
func exchangeCells(t *testing.T, transport string) {
	for _, tp := range conformanceTopologies(t) {
		if transport == "tcpnet" && tp.Size() >= 64 && tp.N() == 1 {
			// The 1-dimensional VPT at K=64 is a full mesh: ~K^2 loopback
			// sockets, enough to trip default fd limits. The mesh case is
			// covered at K=8 and K=16. (udpnet opens one socket per rank
			// regardless of radix and keeps the cell.)
			continue
		}
		if transport != "chanpt" && testing.Short() && tp.Size() > 16 {
			continue
		}
		for _, fixed := range []bool{false, true} {
			t.Run(fmt.Sprintf("K=%d/dims=%v/%s", tp.Size(), tp.Dims(), orderName(fixed)), func(t *testing.T) {
				if transport == "chanpt" {
					t.Parallel()
				}
				if err := core.VerifyWorld(core.WorldSchedules(tp)); err != nil {
					t.Fatalf("schedule world invalid before transport test: %v", err)
				}
				comms := confComms(t, transport, tp.Size(), fixed)
				runConformance(t, comms, tp, confSendSets(int64(tp.Size()), tp.Size()))
			})
		}
	}
}

func TestConformanceChanpt(t *testing.T) { exchangeCells(t, "chanpt") }
func TestConformanceTCP(t *testing.T)    { exchangeCells(t, "tcpnet") }
func TestConformanceUDP(t *testing.T)    { exchangeCells(t, "udpnet") }
func TestConformanceHier(t *testing.T)   { exchangeCells(t, "hier") }

// TestConformanceDirect runs the same differential check for the baseline
// DirectExchange over every primitive transport, both receive orders.
func TestConformanceDirect(t *testing.T) {
	const K = 16
	dests := confSendSets(99, K)
	recvFrom := make([][]int, K)
	for src, ds := range dests {
		for _, dst := range ds {
			recvFrom[dst] = append(recvFrom[dst], src)
		}
	}
	ref := refDeliveries(K, dests)

	run := func(t *testing.T, comms []runtime.Comm) {
		reg := confInstrument(t, comms, 1)
		got := make([]*core.Delivered, K)
		err := runtime.Run(comms, func(c runtime.Comm) error {
			payloads := map[int][]byte{}
			for _, dst := range dests[c.Rank()] {
				payloads[dst] = confPayload(c.Rank(), dst)
			}
			d, err := core.DirectExchange(c, payloads, recvFrom[c.Rank()])
			if err != nil {
				return err
			}
			got[c.Rank()] = d
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		confCheckTelemetry(t, reg)
		for q := 0; q < K; q++ {
			if len(got[q].Subs) != len(ref[q]) {
				t.Fatalf("rank %d: %d deliveries, want %d", q, len(got[q].Subs), len(ref[q]))
			}
			for i, sub := range got[q].Subs {
				w := ref[q][i]
				if sub.Src != w.Src || !bytes.Equal(sub.Data, w.Data) {
					t.Fatalf("rank %d delivery %d differs", q, i)
				}
			}
		}
	}

	for _, transport := range []string{"chanpt", "tcpnet", "udpnet"} {
		for _, fixed := range []bool{false, true} {
			t.Run(transport+"/"+orderName(fixed), func(t *testing.T) {
				run(t, confComms(t, transport, K, fixed))
			})
		}
	}
}

// confRoundPayload derives a per-round payload of the same length as
// confPayload(src, dst): replay rounds ship fresh bytes through the learned
// pattern, proving the replay moves data rather than echoing the learning
// run.
func confRoundPayload(src, dst, round int) []byte {
	b := confPayload(src, dst)
	for i := range b {
		b[i] += byte(round * 101)
	}
	return b
}

// persistentConformanceTopologies is the (smaller) shape set of the
// Persistent/Replay conformance cells: each cell runs a learning exchange
// plus multiple replays, so the suite trades a few large shapes for rounds.
func persistentConformanceTopologies(t *testing.T, tcp bool) []*vpt.Topology {
	t.Helper()
	var tps []*vpt.Topology
	for _, K := range []int{8, 16} {
		for n := 1; n <= vpt.MaxDim(K); n++ {
			tp, err := vpt.NewBalanced(K, n)
			if err != nil {
				t.Fatal(err)
			}
			tps = append(tps, tp)
		}
	}
	tp, err := vpt.NewFactored(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	tps = append(tps, tp)
	if !tcp {
		tp, err := vpt.NewBalanced(64, 3)
		if err != nil {
			t.Fatal(err)
		}
		tps = append(tps, tp)
	}
	return tps
}

// runPersistentConformance learns the pattern once per rank, then replays it
// twice with fresh per-round payloads, checking every round's deliveries
// byte-for-byte against the independently computed reference. Run's
// Delivered is overwritten by the next Run, so each round keeps a copy.
func runPersistentConformance(t *testing.T, comms []runtime.Comm, tp *vpt.Topology, dests map[int][]int) {
	t.Helper()
	K := len(comms)
	const rounds = 2
	got := make([][][]msg.Submessage, rounds+1) // round 0 = learning run
	for r := range got {
		got[r] = make([][]msg.Submessage, K)
	}
	err := runtime.Run(comms, func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{}
		for _, dst := range dests[me] {
			payloads[dst] = confRoundPayload(me, dst, 0)
		}
		p, d, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		got[0][me] = d.Subs
		for r := 1; r <= rounds; r++ {
			for _, dst := range dests[me] {
				payloads[dst] = confRoundPayload(me, dst, r)
			}
			d, err := p.Run(c, payloads)
			if err != nil {
				return err
			}
			got[r][me] = copySubs(d.Subs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= rounds; r++ {
		for q := 0; q < K; q++ {
			var ref []msg.Submessage
			for src := 0; src < K; src++ {
				for _, dst := range dests[src] {
					if dst == q {
						ref = append(ref, msg.Submessage{Src: src, Dst: q, Data: confRoundPayload(src, q, r)})
					}
				}
			}
			if len(got[r][q]) != len(ref) {
				t.Fatalf("round %d rank %d: %d deliveries, want %d", r, q, len(got[r][q]), len(ref))
			}
			for i, sub := range got[r][q] {
				w := ref[i]
				if sub.Src != w.Src || sub.Dst != w.Dst || !bytes.Equal(sub.Data, w.Data) {
					t.Fatalf("round %d rank %d delivery %d: got (%d->%d, %x), want (%d->%d, %x)",
						r, q, i, sub.Src, sub.Dst, sub.Data, w.Src, w.Dst, w.Data)
				}
			}
		}
	}
}

// persistentCells runs one learned-schedule front-end over the persistent
// shape set on every primitive transport, both receive orders.
func persistentCells(t *testing.T, run func(*testing.T, []runtime.Comm, *vpt.Topology, map[int][]int)) {
	for _, transport := range []string{"chanpt", "tcpnet", "udpnet"} {
		for _, tp := range persistentConformanceTopologies(t, transport == "tcpnet") {
			if transport != "chanpt" && testing.Short() && tp.Size() > 8 {
				continue
			}
			for _, fixed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/K=%d/dims=%v/%s", transport, tp.Size(), tp.Dims(), orderName(fixed)), func(t *testing.T) {
					if transport == "chanpt" {
						t.Parallel()
					}
					comms := confComms(t, transport, tp.Size(), fixed)
					run(t, comms, tp, confSendSets(int64(tp.Size()), tp.Size()))
				})
			}
		}
	}
}

// TestConformancePersistent checks the learned-schedule front-end: the
// learning run's and every replay's deliveries are bit-identical to the
// reference.
func TestConformancePersistent(t *testing.T) { persistentCells(t, runPersistentConformance) }

// copySubs copies subs and their payload bytes.
func copySubs(subs []msg.Submessage) []msg.Submessage {
	out := make([]msg.Submessage, len(subs))
	for i, s := range subs {
		out[i] = msg.Submessage{Src: s.Src, Dst: s.Dst, Data: bytes.Clone(s.Data)}
	}
	return out
}

// confWords is the word count of the compiled-replay payload src ships to
// dst; same variety as confPayload's byte lengths.
func confWords(src, dst int) int { return 1 + (src*31+dst*7)%45 }

const confXLen = 256

// confGather builds rank src's gather lists: one index list per destination,
// deterministic so the reference halo is computable without executing.
func confGather(src int, dests []int) map[int][]int32 {
	g := make(map[int][]int32, len(dests))
	for _, dst := range dests {
		idx := make([]int32, confWords(src, dst))
		for i := range idx {
			idx[i] = int32((dst*13 + i*7) % confXLen)
		}
		g[dst] = idx
	}
	return g
}

// confX is rank src's local vector for compiled-replay rounds.
func confX(src, round int) []float64 {
	x := make([]float64, confXLen)
	for i := range x {
		x[i] = float64(src*confXLen+i) + float64(round)*0.25
	}
	return x
}

// runReplayConformance compiles the learned pattern on every rank and runs
// two compiled iterations, checking each halo float-for-float against the
// reference (delivery blocks sorted by source, gathered from the sender's
// local vector).
func runReplayConformance(t *testing.T, comms []runtime.Comm, tp *vpt.Topology, dests map[int][]int) {
	t.Helper()
	K := len(comms)
	const rounds = 2
	halos := make([][][]float64, rounds)
	for r := range halos {
		halos[r] = make([][]float64, K)
	}
	err := runtime.Run(comms, func(c runtime.Comm) error {
		me := c.Rank()
		gather := confGather(me, dests[me])
		payloads := make(map[int][]byte, len(gather))
		for dst, idx := range gather {
			payloads[dst] = make([]byte, 8*len(idx))
		}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		rep, err := p.Compile(confXLen, gather)
		if err != nil {
			return err
		}
		halo := make([]float64, rep.HaloWords())
		for r := 0; r < rounds; r++ {
			if err := rep.Run(c, confX(me, r), halo); err != nil {
				return err
			}
			halos[r][me] = append([]float64(nil), halo...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for q := 0; q < K; q++ {
			var ref []float64
			for src := 0; src < K; src++ {
				for _, dst := range dests[src] {
					if dst != q {
						continue
					}
					x := confX(src, r)
					for _, g := range confGather(src, dests[src])[q] {
						ref = append(ref, x[g])
					}
				}
			}
			if len(halos[r][q]) != len(ref) {
				t.Fatalf("round %d rank %d: halo has %d words, want %d", r, q, len(halos[r][q]), len(ref))
			}
			for i := range ref {
				if halos[r][q][i] != ref[i] {
					t.Fatalf("round %d rank %d halo[%d] = %v, want %v", r, q, i, halos[r][q][i], ref[i])
				}
			}
		}
	}
}

// TestConformanceReplay checks the compiled lowering of the learned
// schedule: the halos must match the reference exactly in every round.
func TestConformanceReplay(t *testing.T) { persistentCells(t, runReplayConformance) }
