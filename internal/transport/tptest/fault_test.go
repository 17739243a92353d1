package tptest_test

import (
	"bytes"
	"testing"
	"time"

	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tptest"
)

func faultPair(t *testing.T, cfg tptest.FaultConfig) ([]runtime.Comm, *tptest.Injector) {
	t.Helper()
	w, err := chanpt.NewWorld(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	inj := tptest.NewInjector(cfg)
	return inj.WrapAll(w.Comms()), inj
}

// TestFaultWrapTransparent: with no fault configured the injector's wrapper
// answers every optional seam with the inner transport's answer, so a
// suite run behind it measures the same flow control as one run bare.
func TestFaultWrapTransparent(t *testing.T) {
	tptest.RunWrapperTransparency(t, tptest.NewInjector(tptest.FaultConfig{}).Wrap)
}

// TestFaultDropDiscards proves Drop=1 silently swallows every frame: the
// send succeeds, the counter moves, and a sentinel frame sent fault-free
// afterwards is the only thing the receiver ever sees.
func TestFaultDropDiscards(t *testing.T) {
	w, err := chanpt.NewWorld(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	comms := w.Comms()
	inj := tptest.NewInjector(tptest.FaultConfig{Seed: 1, Drop: 1})
	faulty := inj.Wrap(comms[0])
	if err := faulty.Send(1, 7, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if st := inj.Stats(); st.Dropped != 1 || st.Sent != 0 {
		t.Fatalf("stats after dropped send: %+v", st)
	}
	if err := comms[0].Send(1, 7, []byte("kept")); err != nil { // bypass injector
		t.Fatal(err)
	}
	got, err := comms[1].Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("kept")) {
		t.Fatalf("receiver saw %q, want the fault-free sentinel", got)
	}
}

// TestFaultDuplicateCopies proves Duplicate=1 delivers the frame twice and
// that the second delivery is an independent copy — mutating the received
// original must not corrupt the duplicate (zero-copy transports hand the
// sender's buffer to the receiver).
func TestFaultDuplicateCopies(t *testing.T) {
	comms, inj := faultPair(t, tptest.FaultConfig{Seed: 1, Duplicate: 1})
	if err := comms[0].Send(1, 3, []byte("twice")); err != nil {
		t.Fatal(err)
	}
	first, err := comms[1].Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		first[i] = 0
	}
	second, err := comms[1].Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, []byte("twice")) {
		t.Fatalf("duplicate frame is %q, want an unaliased copy of %q", second, "twice")
	}
	if st := inj.Stats(); st.Duplicated != 1 || st.Sent != 1 {
		t.Fatalf("stats after duplicated send: %+v", st)
	}
}

// TestFaultDelayPreservesFIFO proves delayed sends still leave in per-pair
// send order — delay perturbs timing, never ordering.
func TestFaultDelayPreservesFIFO(t *testing.T) {
	comms, inj := faultPair(t, tptest.FaultConfig{Seed: 1, Delay: 1, MaxDelay: 50 * time.Microsecond})
	for i := 0; i < 8; i++ {
		if err := comms[0].Send(1, 9, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		got, err := comms[1].Recv(0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("frame %d arrived as %v", i, got)
		}
	}
	if st := inj.Stats(); st.Delayed != 8 {
		t.Fatalf("stats after delayed sends: %+v", st)
	}
}

// TestFaultReorderTargets proves Reorder=1 turns an arrival-order receive
// into a targeted one: with frames queued from both senders, the wrapper
// still returns exactly one listed candidate's frame, and repeated receives
// drain both.
func TestFaultReorderTargets(t *testing.T) {
	w, err := chanpt.NewWorld(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	inj := tptest.NewInjector(tptest.FaultConfig{Seed: 42, Reorder: 1})
	comms := inj.WrapAll(w.Comms())
	if err := comms[0].Send(2, 5, []byte{0xa0}); err != nil {
		t.Fatal(err)
	}
	if err := comms[1].Send(2, 5, []byte{0xa1}); err != nil {
		t.Fatal(err)
	}
	seen := map[int]byte{}
	for len(seen) < 2 {
		from, payload, err := runtime.RecvAnyOf(comms[2], 5, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := seen[from]; dup {
			t.Fatalf("sender %d served twice", from)
		}
		seen[from] = payload[0]
	}
	if seen[0] != 0xa0 || seen[1] != 0xa1 {
		t.Fatalf("payloads misattributed: %v", seen)
	}
	if st := inj.Stats(); st.Reordered == 0 {
		t.Fatalf("reorder never fired: %+v", st)
	}
}

// TestWithFaultsFactory checks the factory combinator: the wrapped world
// still passes frames end to end under Delay=1, and the wrapper preserves
// the inner transport's capability surface (SendRetains, arrival-order
// receives).
func TestWithFaultsFactory(t *testing.T) {
	base := func(size int) ([]runtime.Comm, func(), error) {
		w, err := chanpt.NewWorld(size, 16)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), nil, nil
	}
	factory := tptest.WithFaults(base, tptest.FaultConfig{Seed: 7, Delay: 1, MaxDelay: 20 * time.Microsecond})
	comms, closeWorld, err := factory(2)
	if err != nil {
		t.Fatal(err)
	}
	if closeWorld != nil {
		defer closeWorld()
	}
	if !runtime.SendRetains(comms[0]) {
		t.Fatal("wrapper lost chanpt's SendRetains capability")
	}
	if _, ok := comms[0].(runtime.AnyReceiver); !ok {
		t.Fatal("wrapper lost the AnyReceiver capability")
	}
	for r, c := range comms {
		if err := c.Send(1-r, 0, []byte{byte(10 + r)}); err != nil {
			t.Fatalf("rank %d send: %v", r, err)
		}
	}
	for r, c := range comms {
		got, err := c.Recv(1-r, 0)
		if err != nil {
			t.Fatalf("rank %d recv: %v", r, err)
		}
		if len(got) != 1 || got[0] != byte(10+1-r) {
			t.Fatalf("rank %d received %v", r, got)
		}
	}
}

// TestFaultSeedReproducible: two injectors from the same config produce the
// same fault decisions for the same call sequence.
func TestFaultSeedReproducible(t *testing.T) {
	cfg := tptest.FaultConfig{Seed: 99, Drop: 0.5}
	record := func() []int64 {
		w, err := chanpt.NewWorld(2, 64)
		if err != nil {
			t.Fatal(err)
		}
		inj := tptest.NewInjector(cfg)
		c := inj.Wrap(w.Comms()[0])
		var trace []int64
		for i := 0; i < 32; i++ {
			if err := c.Send(1, 0, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			trace = append(trace, inj.Stats().Dropped)
		}
		return trace
	}
	a, b := record(), record()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at send %d: %v vs %v", i, a, b)
		}
	}
	if final := a[len(a)-1]; final == 0 || final == 32 {
		t.Fatalf("drop=0.5 produced degenerate sequence (%d/32 dropped)", final)
	}
}
