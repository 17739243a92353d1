// Fault injection: a transport wrapper that perturbs delivery while (for
// the semantics-preserving fault classes) staying inside the Comm
// contract, so conformance suites can be re-run under adversarial timing
// and service order. Faults and their contract status:
//
//   - Delay: a random sleep before the inner Send. Frames between a fixed
//     (sender, receiver, tag) triple still leave in send order — FIFO per
//     triple is preserved — but cross-rank interleavings are scrambled.
//     Fully semantics-preserving; any correct engine must produce
//     bit-identical output under it.
//   - Reorder: an arrival-order receive (RecvAnyOf) is, with some
//     probability, served by a targeted Recv on a random candidate instead
//     of the earliest arrival. This is the adversarial-but-legal service
//     order: RecvAnyOf callers that track outstanding senders (the stage
//     machine's RecvPolicy, the compiled replay) must tolerate any order.
//     NOT safe for callers that pass already-served senders in the
//     candidate list and rely on arrival-order matching to skip them.
//   - Duplicate: the frame is sent, then an independent copy is sent
//     again under the same triple. The duplicate violates the one-frame-
//     per-neighbor-per-stage schedule contract; engines survive a
//     duplicate within one exchange (the extra frame stays queued behind
//     the matched one) but a subsequent exchange reusing the tag would
//     mis-match it. Use in single-exchange tests.
//   - Drop: the frame is silently discarded. Always contract-violating;
//     used to prove engines fail (block until world close, then error)
//     rather than deliver wrong data.
//
// All randomness comes from one seeded, locked PRNG per Injector, so a
// failing configuration is reproducible from its seed.
package tptest

import (
	"math/rand"
	"sync"
	"time"

	"stfw/internal/runtime"
)

// FaultConfig selects fault classes and their rates. Probabilities are in
// [0, 1]; zero disables the class.
type FaultConfig struct {
	// Seed initializes the injector's PRNG; the same seed replays the same
	// fault sequence for a fixed call order.
	Seed int64
	// Drop is the probability an outbound frame is silently discarded.
	Drop float64
	// Delay is the probability a Send sleeps before reaching the inner
	// transport; the sleep is uniform in (0, MaxDelay].
	Delay float64
	// MaxDelay bounds the injected send delay. Zero with Delay > 0 means
	// 200 microseconds — enough to scramble goroutine interleavings
	// without slowing suites down.
	MaxDelay time.Duration
	// Duplicate is the probability a frame is sent twice (the second time
	// as an independent copy, so zero-copy transports see distinct
	// buffers).
	Duplicate float64
	// Reorder is the probability an arrival-order receive is served by a
	// targeted receive on a uniformly random candidate instead.
	Reorder float64
}

// FaultStats counts what the injector actually did — tests assert on these
// to prove the configured faults fired.
type FaultStats struct {
	Sent, Dropped, Delayed, Duplicated, Reordered int64
}

// Injector wraps communicators with a shared fault source. One Injector
// serves a whole world: the PRNG and counters are mutex-guarded, so
// concurrent sends from many ranks are safe (and serialize only for the
// coin flips, not for the inner transport calls).
type Injector struct {
	cfg   FaultConfig
	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultStats
}

// NewInjector creates an injector for the given configuration.
func NewInjector(cfg FaultConfig) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns a copy of the fault counters.
func (i *Injector) Stats() FaultStats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// roll draws a uniform float and reports whether it lands under p,
// returning auxiliary randomness for the fault's parameters.
func (i *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	i.mu.Lock()
	hit := i.rng.Float64() < p
	i.mu.Unlock()
	return hit
}

func (i *Injector) randDelay() time.Duration {
	max := i.cfg.MaxDelay
	if max <= 0 {
		max = 200 * time.Microsecond
	}
	i.mu.Lock()
	d := time.Duration(i.rng.Int63n(int64(max))) + 1
	i.mu.Unlock()
	return d
}

func (i *Injector) count(f func(*FaultStats)) {
	i.mu.Lock()
	f(&i.stats)
	i.mu.Unlock()
}

// Wrap returns a communicator that applies the injector's faults around c.
// The wrapper embeds runtime.Passthrough and implements AnyReceiver
// (delegating to the runtime helper over the inner transport), so engines
// see the same capability surface as the bare transport. Hints pass through
// because the injector perturbs frame timing, not the schedule: the inner
// transport's hinted flow control stays sound under every
// semantics-preserving fault class (Drop violates the schedule contract
// with or without hints).
func (i *Injector) Wrap(c runtime.Comm) runtime.Comm {
	return &faultComm{Passthrough: runtime.Passthrough{Comm: c}, inj: i}
}

// WrapAll wraps every communicator of a world with the same injector.
func (i *Injector) WrapAll(comms []runtime.Comm) []runtime.Comm {
	out := make([]runtime.Comm, len(comms))
	for r, c := range comms {
		out[r] = i.Wrap(c)
	}
	return out
}

// WithFaults promotes a world factory into one whose comms inject the
// given faults — the opt-in every transport's conformance caller can use.
// Each world gets its own injector (fresh PRNG from cfg.Seed), keeping
// subtests independent and reproducible.
func WithFaults(newWorld Factory, cfg FaultConfig) Factory {
	return func(size int) ([]runtime.Comm, func(), error) {
		comms, closeWorld, err := newWorld(size)
		if err != nil {
			return nil, closeWorld, err
		}
		return NewInjector(cfg).WrapAll(comms), closeWorld, nil
	}
}

type faultComm struct {
	runtime.Passthrough
	inj *Injector
}

func (f *faultComm) Send(to, tag int, payload []byte) error {
	i := f.inj
	if i.roll(i.cfg.Drop) {
		i.count(func(s *FaultStats) { s.Dropped++ })
		return nil
	}
	if i.roll(i.cfg.Delay) {
		i.count(func(s *FaultStats) { s.Delayed++ })
		time.Sleep(i.randDelay())
	}
	// Copy a duplicate before the first Send: a retaining transport owns
	// payload once Send returns, and the receiver may recycle it at once.
	duplicate := i.roll(i.cfg.Duplicate)
	var dup []byte
	if duplicate {
		dup = append([]byte(nil), payload...)
	}
	if err := f.Comm.Send(to, tag, payload); err != nil {
		return err
	}
	i.count(func(s *FaultStats) { s.Sent++ })
	if duplicate {
		i.count(func(s *FaultStats) { s.Duplicated++ })
		return f.Comm.Send(to, tag, dup)
	}
	return nil
}

// RecvAnyOf serves the receive in arrival order through the inner
// transport — unless the reorder fault fires, in which case it blocks on a
// uniformly random candidate. Either way exactly one listed candidate's
// frame is consumed, which is conforming for callers that shrink the
// candidate list as frames are served.
func (f *faultComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	i := f.inj
	if len(from) > 1 && i.roll(i.cfg.Reorder) {
		i.mu.Lock()
		pick := from[i.rng.Intn(len(from))]
		i.mu.Unlock()
		i.count(func(s *FaultStats) { s.Reordered++ })
		payload, err := f.Comm.Recv(pick, tag)
		return pick, payload, err
	}
	return runtime.RecvAnyOf(f.Comm, tag, from)
}
