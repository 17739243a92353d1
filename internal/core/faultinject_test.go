// Fault-injection conformance: the differential suite re-run under the
// tptest fault injector. Each fault class is applied exactly where it is
// contract-preserving (see tptest/fault.go):
//
//   - delay everywhere, both receive orders — timing-only, must be
//     invisible;
//   - reorder on the arrival-order paths — the stage machine and the
//     compiled replay shrink their candidate lists (RecvPolicy), so any
//     legal service order must produce identical output;
//   - duplicate in single-exchange cells — the extra frame stays queued
//     behind the matched one;
//   - drop only as a liveness check over TCP: the engine must block until
//     the world closes and then surface an error, never wrong data.
package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

// faultTopologies is the reduced shape set for fault cells: each cell runs a
// full conformance exchange with perturbed timing, so one multi-stage shape
// per K suffices.
func faultTopologies(t *testing.T) []*vpt.Topology {
	t.Helper()
	var tps []*vpt.Topology
	for _, K := range []int{8, 16} {
		tp, err := vpt.NewBalanced(K, vpt.MaxDim(K))
		if err != nil {
			t.Fatal(err)
		}
		tps = append(tps, tp)
	}
	return tps
}

// faultWorld is confWorld wrapped by a fresh injector.
func faultWorld(t *testing.T, transport string, K, buffer int, cfg tptest.FaultConfig) ([]runtime.Comm, *tptest.Injector) {
	t.Helper()
	inj := tptest.NewInjector(cfg)
	return inj.WrapAll(confWorld(t, transport, K, buffer)), inj
}

// TestConformanceFaultDelay runs the exchange and persistent suites with
// every send randomly delayed, on every transport and both receive orders
// (the fixed leg hides the matcher above the injector). Output must be
// bit-identical to the fault-free reference.
func TestConformanceFaultDelay(t *testing.T) {
	cfg := tptest.FaultConfig{Seed: 11, Delay: 0.5, MaxDelay: 100 * time.Microsecond}
	for _, transport := range []string{"chanpt", "tcpnet", "udpnet"} {
		for _, tp := range faultTopologies(t) {
			if transport != "chanpt" && testing.Short() && tp.Size() > 8 {
				continue
			}
			for _, fixed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/K=%d/%s", transport, tp.Size(), orderName(fixed)), func(t *testing.T) {
					if transport == "chanpt" {
						t.Parallel()
					}
					comms, inj := faultWorld(t, transport, tp.Size(), 2, cfg)
					if fixed {
						forceOrderedComms(comms)
					}
					dests := confSendSets(int64(tp.Size()), tp.Size())
					runConformance(t, comms, tp, dests)
					runPersistentConformance(t, comms, tp, dests)
					if st := inj.Stats(); st.Delayed == 0 {
						t.Fatalf("delay fault never fired: %+v", st)
					}
				})
			}
		}
	}
}

// TestConformanceFaultReorder runs the arrival-order paths (exchange,
// persistent replay, compiled replay) with receives served in
// adversarial random order. The engines track outstanding senders, so any
// service order over the candidate set is legal and the output must not
// change.
func TestConformanceFaultReorder(t *testing.T) {
	cfg := tptest.FaultConfig{Seed: 23, Reorder: 0.75}
	// Wide-radix shapes: reorder needs multi-candidate receive rounds, and a
	// radix-2 dimension has a single neighbor per stage.
	var wide []*vpt.Topology
	for _, c := range []struct{ K, n int }{{8, 1}, {16, 2}} {
		tp, err := vpt.NewBalanced(c.K, c.n)
		if err != nil {
			t.Fatal(err)
		}
		wide = append(wide, tp)
	}
	for _, transport := range []string{"chanpt", "tcpnet", "udpnet"} {
		for _, tp := range wide {
			if transport != "chanpt" && testing.Short() && tp.Size() > 8 {
				continue
			}
			t.Run(fmt.Sprintf("%s/K=%d", transport, tp.Size()), func(t *testing.T) {
				if transport == "chanpt" {
					t.Parallel()
				}
				comms, inj := faultWorld(t, transport, tp.Size(), 2, cfg)
				dests := confSendSets(int64(tp.Size()), tp.Size())
				runConformance(t, comms, tp, dests)
				runPersistentConformance(t, comms, tp, dests)
				runReplayConformance(t, comms, tp, dests)
				if st := inj.Stats(); st.Reordered == 0 {
					t.Fatalf("reorder fault never fired: %+v", st)
				}
			})
		}
	}
}

// TestConformanceFaultDuplicate runs single-exchange cells with frames
// randomly duplicated. A duplicate within one exchange
// stays queued behind the matched frame (the engines shrink candidate
// lists, and arrival-order receives skip stale-tag frames), so deliveries
// must still be bit-identical. The chanpt buffer is sized so leftover
// duplicates can never exhaust per-pair matcher capacity.
func TestConformanceFaultDuplicate(t *testing.T) {
	cfg := tptest.FaultConfig{Seed: 31, Duplicate: 0.5}
	for _, transport := range []string{"chanpt", "tcpnet", "udpnet"} {
		for _, tp := range faultTopologies(t) {
			if transport != "chanpt" && testing.Short() && tp.Size() > 8 {
				continue
			}
			t.Run(fmt.Sprintf("%s/K=%d", transport, tp.Size()), func(t *testing.T) {
				if transport == "chanpt" {
					t.Parallel()
				}
				comms, inj := faultWorld(t, transport, tp.Size(), 4*tp.N()+4, cfg)
				dests := confSendSets(int64(tp.Size()), tp.Size())
				runConformance(t, comms, tp, dests)
				if st := inj.Stats(); st.Duplicated == 0 {
					t.Fatalf("duplicate fault never fired: %+v", st)
				}
			})
		}
	}
}

// TestFaultDropLivenessTCP proves the fail-stop property under frame loss:
// with sends randomly dropped, no rank may ever deliver wrong data — ranks
// either complete with bit-identical output (possible only when no frame
// they transitively depend on was dropped) or block until the world closes
// and then return an error. The test closes the world once progress has
// provably stalled and requires the collective run to fail.
func TestFaultDropLivenessTCP(t *testing.T) {
	tp, err := vpt.NewBalanced(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tcpnet.NewWorld(tp.Size())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	inj := tptest.NewInjector(tptest.FaultConfig{Seed: 47, Drop: 0.3})
	comms := inj.WrapAll(w.Comms())
	dests := confSendSets(int64(tp.Size()), tp.Size())

	var completed atomic.Int64
	got := make([]*core.Delivered, tp.Size())
	runErr := make(chan error, 1)
	go func() {
		runErr <- runtime.Run(comms, func(c runtime.Comm) error {
			payloads := map[int][]byte{}
			for _, dst := range dests[c.Rank()] {
				payloads[dst] = confPayload(c.Rank(), dst)
			}
			d, err := core.Exchange(c, tp, payloads)
			if err != nil {
				return err
			}
			got[c.Rank()] = d
			completed.Add(1)
			return nil
		})
	}()

	// Wait until at least one frame was provably dropped (with drop=0.3
	// over dozens of frames this is near-instant), give in-flight receives
	// a moment, then close the world to unblock the stalled ranks.
	deadline := time.After(10 * time.Second)
	for inj.Stats().Dropped == 0 {
		select {
		case <-deadline:
			t.Fatal("drop fault never fired")
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(50 * time.Millisecond)
	w.Close()

	select {
	case err := <-runErr:
		if err == nil {
			t.Fatalf("exchange completed despite %d dropped frames", inj.Stats().Dropped)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ranks still blocked 30s after world close")
	}

	// Fail-stop, not fail-wrong: any rank that did complete received every
	// frame it expected, so its deliveries must match the reference exactly.
	ref := refDeliveries(tp.Size(), dests)
	for q, d := range got {
		if d == nil {
			continue
		}
		if len(d.Subs) != len(ref[q]) {
			t.Fatalf("completed rank %d: %d deliveries, want %d", q, len(d.Subs), len(ref[q]))
		}
		for i, sub := range d.Subs {
			wnt := ref[q][i]
			if sub.Src != wnt.Src || sub.Dst != wnt.Dst || string(sub.Data) != string(wnt.Data) {
				t.Fatalf("completed rank %d delivery %d: got (%d->%d), want (%d->%d)",
					q, i, sub.Src, sub.Dst, wnt.Src, wnt.Dst)
			}
		}
	}
	t.Logf("drop liveness: %d ranks completed, %d frames dropped", completed.Load(), inj.Stats().Dropped)
}
