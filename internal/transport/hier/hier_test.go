package hier_test

import (
	"bytes"
	"fmt"
	"testing"

	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/transport/tptest"
	"stfw/internal/transport/udpnet"
)

// twoNodes splits a world into two contiguous node halves (the smaller
// second when size is odd), so every suite size exercises both sides of
// the mux: size 2 is all-inter-node, sizes 3+ mix intra and inter pairs.
func twoNodes(size int) func(int) int {
	half := (size + 1) / 2
	return func(r int) int {
		if r < half {
			return 0
		}
		return 1
	}
}

func chanFactory(size int) ([]runtime.Comm, func(), error) {
	w, err := chanpt.NewWorld(size, 4)
	if err != nil {
		return nil, nil, err
	}
	return w.Comms(), w.Close, nil
}

func udpFactory(size int) ([]runtime.Comm, func(), error) {
	w, err := udpnet.NewWorld(size)
	if err != nil {
		return nil, nil, err
	}
	return w.Comms(), w.Close, nil
}

func tcpFactory(size int) ([]runtime.Comm, func(), error) {
	w, err := tcpnet.NewWorld(size)
	if err != nil {
		return nil, nil, err
	}
	return w.Comms(), w.Close, nil
}

// mux assembles hier endpoints over two sub-worlds under the twoNodes
// split; tptest.Composite turns it into a factory.
func mux(subs ...[]runtime.Comm) ([]runtime.Comm, error) {
	w, err := hier.New(hier.Config{Inner: subs[0], Outer: subs[1], NodeOf: twoNodes(len(subs[0]))})
	if err != nil {
		return nil, err
	}
	return w.Comms(), nil
}

// hier retains payloads (the inner chanpt side hands the slice to the
// receiver), validates candidate lists itself, and close (of the
// sub-worlds, in reverse order) wakes blocked receivers. Arrival order
// across two sub-transports is not deterministic, so the strict-order
// subtest stays off.
var muxOpts = tptest.Options{
	WantSendRetains: true,
	TestOutOfRange:  true,
	TestClose:       true,
}

// TestTransportConformance runs the shared matcher-contract suite over the
// composite transport in its canonical configuration: chanpt carrying
// intra-node pairs, udpnet carrying inter-node pairs.
func TestTransportConformance(t *testing.T) {
	tptest.Run(t, tptest.Composite(mux, chanFactory, udpFactory), muxOpts)
}

// TestTransportConformanceTCPOuter swaps the wire side for tcpnet: the mux
// must not care which transport owns which side.
func TestTransportConformanceTCPOuter(t *testing.T) {
	tptest.Run(t, tptest.Composite(mux, chanFactory, tcpFactory), muxOpts)
}

// TestConcurrentSend checks that goroutines sharing one mux endpoint may
// Send at once (tptest.RunConcurrentSend). Under the twoNodes split of
// three ranks, rank 1 is on rank 0's node and rank 2 is reached over the
// node pair's leader link.
func TestConcurrentSend(t *testing.T) {
	tptest.RunConcurrentSend(t, tptest.Composite(mux, chanFactory, udpFactory))
}

// TestTransportConformanceFaultDelay re-runs the contract suite with every
// send delayed — the contract-preserving fault class — so cross-sub
// arbitration is exercised under scrambled goroutine interleavings.
func TestTransportConformanceFaultDelay(t *testing.T) {
	factory := tptest.WithFaults(tptest.Composite(mux, chanFactory, udpFactory),
		tptest.FaultConfig{Seed: 1, Delay: 1})
	tptest.Run(t, factory, tptest.Options{
		WantSendRetains: true,
	})
}

// TestTransportConformanceFaultReorder runs the suite under adversarial
// receive service order on top of the mux.
func TestTransportConformanceFaultReorder(t *testing.T) {
	factory := tptest.WithFaults(tptest.Composite(mux, chanFactory, udpFactory),
		tptest.FaultConfig{Seed: 3, Reorder: 0.5})
	tptest.Run(t, factory, tptest.Options{
		WantSendRetains: true,
	})
}

// buildMixed assembles a size-rank composite world (chanpt inner, udpnet
// outer, twoNodes split) directly, for the targeted semantics tests below.
func buildMixed(t *testing.T, size int) ([]runtime.Comm, func()) {
	t.Helper()
	cw, err := chanpt.NewWorld(size, 4)
	if err != nil {
		t.Fatal(err)
	}
	uw, err := udpnet.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	w, err := hier.New(hier.Config{Inner: cw.Comms(), Outer: uw.Comms(), NodeOf: twoNodes(size)})
	if err != nil {
		uw.Close()
		t.Fatal(err)
	}
	return w.Comms(), func() { uw.Close(); cw.Close() }
}

// TestCrossSubArbitration drives RecvAnyOf with candidates spanning both
// sub-transports and checks every frame is delivered exactly once with its
// payload intact, whichever side it traveled.
func TestCrossSubArbitration(t *testing.T) {
	const size = 6 // nodes {0,1,2} and {3,4,5}
	comms, done := buildMixed(t, size)
	defer done()
	senders := []int{1, 2, 3, 4, 5}
	for _, s := range senders {
		if err := comms[s].Send(0, 11, []byte{byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[int]bool{}
	for range senders {
		from, payload, err := runtime.RecvAnyOf(comms[0], 11, senders)
		if err != nil {
			t.Fatal(err)
		}
		if got[from] {
			t.Fatalf("sender %d delivered twice", from)
		}
		if len(payload) != 1 || payload[0] != byte(from) {
			t.Fatalf("payload %x from %d", payload, from)
		}
		got[from] = true
	}
}

// TestRecvServedThroughStash pins the puller-coverage rule: after a
// cross-sub RecvAnyOf leaves a puller parked on the inner side, a targeted
// Recv for a sender that puller covers must be served through the arrival
// stash (the puller owns the sub-receive), not by a racing direct receive.
func TestRecvServedThroughStash(t *testing.T) {
	const size = 4 // nodes {0,1} and {2,3}
	comms, done := buildMixed(t, size)
	defer done()
	// Only the outer-side sender has a frame queued; the mixed candidate
	// list forces a puller onto the inner side for rank 1.
	if err := comms[2].Send(0, 5, []byte("outer")); err != nil {
		t.Fatal(err)
	}
	from, payload, err := runtime.RecvAnyOf(comms[0], 5, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if from != 2 || string(payload) != "outer" {
		t.Fatalf("got %q from %d, want the outer frame", payload, from)
	}
	// The inner puller for rank 1 is still parked. Its frame must reach
	// both a targeted Recv and a frame sent later under another tag must
	// stay unaffected.
	if err := comms[1].Send(0, 5, []byte("inner")); err != nil {
		t.Fatal(err)
	}
	got, err := comms[0].Recv(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("inner")) {
		t.Fatalf("stash-served recv got %q", got)
	}
}

// TestWorldSemantics runs a small collective over the mux: a ring exchange
// crossing the node boundary twice plus a barrier, under runtime.Run.
func TestWorldSemantics(t *testing.T) {
	const size = 6
	comms, done := buildMixed(t, size)
	defer done()
	err := runtime.Run(comms, func(c runtime.Comm) error {
		right := (c.Rank() + 1) % size
		left := (c.Rank() + size - 1) % size
		if err := c.Send(right, 0, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		p, err := c.Recv(left, 0)
		if err != nil {
			return err
		}
		if int(p[0]) != left {
			return fmt.Errorf("got token %d from %d", p[0], left)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConfigValidation covers the constructor's shape checks.
func TestConfigValidation(t *testing.T) {
	cw, err := chanpt.NewWorld(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	cw2, err := chanpt.NewWorld(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cw2.Close()
	nodeOf := twoNodes(4)
	if _, err := hier.New(hier.Config{NodeOf: nodeOf}); err == nil {
		t.Error("empty inner world accepted")
	}
	if _, err := hier.New(hier.Config{Inner: cw.Comms(), Outer: cw2.Comms(), NodeOf: nodeOf}); err == nil {
		t.Error("mismatched world sizes accepted")
	}
	if _, err := hier.New(hier.Config{Inner: cw.Comms(), Outer: cw.Comms()}); err == nil {
		t.Error("nil NodeOf accepted")
	}
	if _, err := hier.New(hier.Config{Inner: cw.Comms(), Outer: cw.Comms(), NodeOf: nodeOf, AppTagLo: 5, AppTagHi: 5}); err == nil {
		t.Error("empty tag span accepted")
	}
	rev := cw.Comms()
	rev[0], rev[1] = rev[1], rev[0]
	if _, err := hier.New(hier.Config{Inner: rev, Outer: cw.Comms(), NodeOf: nodeOf}); err == nil {
		t.Error("permuted endpoint slice accepted")
	}
}

// fakeWorld is a world of tptest.SeamFake sub-comms, which record the
// traffic hints and sends routed to them.
func fakeWorld(size int) ([]runtime.Comm, []*tptest.SeamFake) {
	comms := make([]runtime.Comm, size)
	recs := make([]*tptest.SeamFake, size)
	for r := range comms {
		recs[r] = &tptest.SeamFake{Me: r, World: size}
		comms[r] = recs[r]
	}
	return comms, recs
}

// TestMuxTransparent: with every rank its own node the mux routes all
// pairs over the outer sub, and must then answer every optional seam as
// that sub does — over an inner sub with nothing to declare.
func TestMuxTransparent(t *testing.T) {
	tptest.RunWrapperTransparency(t, func(c runtime.Comm) runtime.Comm {
		inner, _ := fakeWorld(c.Size())
		outer, _ := fakeWorld(c.Size())
		outer[c.Rank()] = c
		w, err := hier.New(hier.Config{Inner: inner, Outer: outer, NodeOf: func(r int) int { return r }})
		if err != nil {
			t.Fatal(err)
		}
		return w.Comms()[c.Rank()]
	})
}

// TestHintFanout checks the TrafficHinter seam composes: each stage's
// per-peer entries reach only the endpoint carrying those pairs (none for
// leader-routed pairs), Tag and Dim survive, stages with no traffic on a
// side are dropped there, and
// a repeated hint with the same backing slice re-forwards the same split
// slices (so pointer-dedup in the sub-transport still works).
func TestHintFanout(t *testing.T) {
	const size = 4 // nodes {0,1} and {2,3}
	innerComms, innerRecs := fakeWorld(size)
	outerComms, outerRecs := fakeWorld(size)
	w, err := hier.New(hier.Config{Inner: innerComms, Outer: outerComms, NodeOf: twoNodes(size)})
	if err != nil {
		t.Fatal(err)
	}
	c0 := w.Comms()[0]
	stages := []runtime.StageTraffic{
		{Tag: 100, Dim: 0, // intra-node stage: rank 0 <-> rank 1
			Sends: []runtime.PeerTraffic{{Peer: 1, Frames: 1}},
			Recvs: []runtime.PeerTraffic{{Peer: 1, Frames: 1}}},
		{Tag: 101, Dim: 1, // inter-node stage: rank 0 <-> rank 2
			Sends: []runtime.PeerTraffic{{Peer: 2, Frames: 1}},
			Recvs: []runtime.PeerTraffic{{Peer: 2, Frames: 1}}},
	}
	runtime.HintTraffic(c0, stages)
	in, out := innerRecs[0], outerRecs[0]
	// Rank 2 sits on a two-rank node, so the dim-1 stage rides the node
	// pair's leader link: rank 0's own outer endpoint carries none of it.
	if len(in.Hints) != 1 || len(out.Hints) != 0 {
		t.Fatalf("hint calls inner=%d outer=%d, want 1 and 0", len(in.Hints), len(out.Hints))
	}
	if len(in.Hints[0]) != 1 || in.Hints[0][0].Tag != 100 || in.Hints[0][0].Dim != 0 {
		t.Fatalf("inner hint %+v, want only the dim-0 stage", in.Hints[0])
	}
	// Repeated hint with the same backing slice: the sub-transports must
	// see the same backing slices again, or their pointer dedup breaks.
	runtime.HintTraffic(c0, stages)
	if len(in.Hints) != 2 || &in.Hints[0][0] != &in.Hints[1][0] {
		t.Error("repeated hint did not re-forward the cached inner split")
	}
	if len(out.Hints) != 0 {
		t.Error("repeated hint forwarded leader-routed traffic to the rank's own outer endpoint")
	}
}

// TestSendRouting checks the data plane's routing rule directly: intra-node
// destinations reach the inner fake, inter-node ones the outer fake of the
// node's leader, addressed to the remote node's leader.
func TestSendRouting(t *testing.T) {
	const size = 4
	innerComms, innerRecs := fakeWorld(size)
	outerComms, outerRecs := fakeWorld(size)
	w, err := hier.New(hier.Config{Inner: innerComms, Outer: outerComms, NodeOf: twoNodes(size)})
	if err != nil {
		t.Fatal(err)
	}
	c0 := w.Comms()[0]
	for to := 1; to < size; to++ {
		if err := c0.Send(to, 9, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(innerRecs[0].Sent) != 1 || innerRecs[0].Sent[0] != 1 {
		t.Errorf("inner sends = %v, want [1]", innerRecs[0].Sent)
	}
	// Both inter-node frames ride the leader link: rank 0 leads node 0 and
	// rank 2 leads node 1.
	if len(outerRecs[0].Sent) != 2 || outerRecs[0].Sent[0] != 2 || outerRecs[0].Sent[1] != 2 {
		t.Errorf("outer sends = %v, want [2 2]", outerRecs[0].Sent)
	}
	if err := c0.Send(size, 9, nil); err == nil {
		t.Error("out-of-range send accepted")
	}
}
