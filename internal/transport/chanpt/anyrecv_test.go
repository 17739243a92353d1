package chanpt

import (
	"testing"

	"stfw/internal/runtime"
	"stfw/internal/transport/tptest"
)

// TestTransportConformance runs the shared matcher-contract suite
// (internal/transport/tptest) over the in-process channel transport.
// chanpt's matcher is deterministic — Send enqueues immediately in program
// order — so the strict arrival-order subtest applies, and payloads are
// handed to the receiver zero-copy (SendRetains true).
func TestTransportConformance(t *testing.T) {
	tptest.Run(t, func(size int) ([]runtime.Comm, func(), error) {
		w, err := NewWorld(size, 4)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	}, tptest.Options{
		WantSendRetains:    true,
		StrictArrivalOrder: true,
		TestOutOfRange:     true,
		TestClose:          true,
	})
}

// TestTransportConformanceFaultDelay re-runs the contract suite with the
// tptest fault injector delaying every send. Delay is the one fault class
// that is fully contract-preserving (per-pair FIFO survives, only timing
// shifts), so the whole suite must still pass — including strict arrival
// order, because the suite sequences cross-rank sends and a delayed Send
// still blocks the sender until the frame is enqueued.
func TestTransportConformanceFaultDelay(t *testing.T) {
	factory := tptest.WithFaults(func(size int) ([]runtime.Comm, func(), error) {
		w, err := NewWorld(size, 4)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), nil, nil
	}, tptest.FaultConfig{Seed: 1, Delay: 1})
	tptest.Run(t, factory, tptest.Options{
		WantSendRetains:    true,
		StrictArrivalOrder: true,
		TestOutOfRange:     false, // range checks live in the inner transport, already covered above
	})
}

// TestConcurrentSend checks that goroutines sharing one endpoint may Send
// at once (tptest.RunConcurrentSend).
func TestConcurrentSend(t *testing.T) {
	tptest.RunConcurrentSend(t, func(size int) ([]runtime.Comm, func(), error) {
		w, err := NewWorld(size, 4)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	})
}
