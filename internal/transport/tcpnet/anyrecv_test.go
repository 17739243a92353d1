package tcpnet

import (
	"testing"

	"stfw/internal/runtime"
	"stfw/internal/transport/tptest"
)

// TestTransportConformance runs the shared matcher-contract suite
// (internal/transport/tptest) over the TCP transport. Network interleaving
// makes cross-connection arrival order nondeterministic, so the strict
// arrival-order subtest is skipped; Close must wake blocked receivers,
// malformed candidate lists are rejected, and payloads are serialized before
// Send returns (SendRetains false).
func TestTransportConformance(t *testing.T) {
	tptest.Run(t, func(size int) ([]runtime.Comm, func(), error) {
		w, err := NewWorld(size)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), func() { w.Close() }, nil
	}, tptest.Options{
		WantSendRetains: false,
		TestOutOfRange:  true,
		TestClose:       true,
	})
}

// TestTransportConformanceFaultDelay re-runs the contract suite over TCP
// with the tptest fault injector delaying every send — the timing-only
// fault class every conforming transport must absorb.
func TestTransportConformanceFaultDelay(t *testing.T) {
	factory := tptest.WithFaults(func(size int) ([]runtime.Comm, func(), error) {
		w, err := NewWorld(size)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), func() { w.Close() }, nil
	}, tptest.FaultConfig{Seed: 1, Delay: 1})
	tptest.Run(t, factory, tptest.Options{
		WantSendRetains: false,
		TestClose:       true,
	})
}

// TestConcurrentSend checks that goroutines sharing one endpoint may Send
// at once (tptest.RunConcurrentSend): group commit must keep frames whole.
func TestConcurrentSend(t *testing.T) {
	tptest.RunConcurrentSend(t, func(size int) ([]runtime.Comm, func(), error) {
		w, err := NewWorld(size)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), func() { w.Close() }, nil
	})
}
