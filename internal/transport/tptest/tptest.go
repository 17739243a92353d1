// Package tptest is the shared conformance harness for transport
// implementations of runtime.Comm and its optional extensions. Every
// transport must honor the same matcher contract — the stage machine's
// arrival-order receive discipline (runtime.RecvPolicy over RecvAnyOf) is
// only sound if frames from unlisted senders or with other tags stay queued
// — so the contract is tested in one place and each transport's test file is
// a thin caller passing a world factory and the transport's expected
// properties. The helper-semantics suite (RunHelperSemantics) covers the
// runtime.RecvAnyOf/SendRetains fallback logic itself, against in-memory
// fakes.
package tptest

import (
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stfw/internal/runtime"
)

// Factory builds a fresh world of the given size for one subtest. comms has
// one endpoint per rank; closeWorld may be nil for worlds without teardown.
type Factory func(size int) (comms []runtime.Comm, closeWorld func(), err error)

// Composite promotes a transport that wraps other transports' worlds into
// a Factory the suite can run like any primitive transport: each sub-
// factory builds one sub-world, wrap assembles the composite endpoints
// from the sub-worlds' endpoint slices (in sub-factory order), and the
// composite's teardown closes the sub-worlds in reverse construction
// order. The leak checks then cover the whole stack — a composite that
// parks goroutines inside a sub-transport past teardown fails the same
// way a primitive transport would.
func Composite(wrap func(subs ...[]runtime.Comm) ([]runtime.Comm, error), subs ...Factory) Factory {
	return func(size int) ([]runtime.Comm, func(), error) {
		var cleanups []func()
		closeAll := func() {
			for i := len(cleanups) - 1; i >= 0; i-- {
				cleanups[i]()
			}
		}
		worlds := make([][]runtime.Comm, len(subs))
		for i, f := range subs {
			comms, closeWorld, err := f(size)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			if closeWorld != nil {
				cleanups = append(cleanups, closeWorld)
			}
			worlds[i] = comms
		}
		comms, err := wrap(worlds...)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		return comms, closeAll, nil
	}
}

// Options declares the properties the transport under test promises.
type Options struct {
	// WantSendRetains is the transport's expected SendRetains answer:
	// true for zero-copy transports that hand the payload slice to the
	// receiver, false for wire transports that serialize before Send returns.
	WantSendRetains bool
	// StrictArrivalOrder enables the earliest-arrival subtest, which is only
	// deterministic on in-process transports where Send enqueues immediately.
	StrictArrivalOrder bool
	// TestClose enables the close-wakes-receiver subtest; requires a
	// non-nil closeWorld from the factory.
	TestClose bool
	// TestOutOfRange enables the native-matcher validation subtest (empty
	// and out-of-range candidate lists rejected by the transport itself).
	TestOutOfRange bool
}

// transportGoroutines returns the stacks of live goroutines currently
// executing transport code, identified by the shared package path prefix.
func transportGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := goruntime.Stack(buf, true)
	var out []string
	for _, s := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(s, "stfw/internal/transport") {
			out = append(out, s)
		}
	}
	return out
}

// checkNoLeakedGoroutines fails the test if, after a world's teardown, more
// transport goroutines are alive than before it was created. Teardown is
// asynchronous on wire transports (reader loops exit when their connection
// errors out), so the check polls with a grace window before declaring a
// leak — a leaked goroutine never exits, so the window only delays failure,
// not success.
func checkNoLeakedGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gs := transportGoroutines()
		if len(gs) <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("transport leaked %d goroutines after world close (baseline %d):\n%s",
				len(gs)-baseline, baseline, strings.Join(gs, "\n\n"))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// primeNetpoller forces the Go runtime's network poller (and its
// process-lifetime descriptors: epoll instance, wakeup eventfd) into
// existence before an fd baseline is taken, so the first socket-creating
// subtest is not blamed for them.
var primeNetpoller = sync.OnceFunc(func() {
	if c, err := net.ListenPacket("udp", "127.0.0.1:0"); err == nil {
		c.Close()
	}
})

// OpenFDs counts this process's open file descriptors (via /proc/self/fd;
// -1 where that is unavailable). Socket-backed transports use it to prove
// world teardown releases every descriptor.
func OpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// CheckNoLeakedFDs fails the test if the process holds more file
// descriptors than the baseline after a world's teardown. Like the
// goroutine check it polls with a grace window, since descriptor release
// can trail the close call on wire transports.
func CheckNoLeakedFDs(t *testing.T, baseline int) {
	t.Helper()
	if baseline < 0 {
		return // no /proc on this platform
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := OpenFDs()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("transport leaked %d file descriptors after world close (baseline %d)", n-baseline, baseline)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// LeakCheck takes the goroutine and descriptor baselines before a world is
// built and returns the check to run after its teardown.
func LeakCheck(t *testing.T) (check func()) {
	primeNetpoller()
	baseline, fdBaseline := len(transportGoroutines()), OpenFDs()
	return func() {
		t.Helper()
		checkNoLeakedGoroutines(t, baseline)
		CheckNoLeakedFDs(t, fdBaseline)
	}
}

// Run executes the conformance suite against the transport.
func Run(t *testing.T, newWorld Factory, o Options) {
	world := func(t *testing.T, size int) ([]runtime.Comm, func()) {
		t.Helper()
		check := LeakCheck(t)
		comms, closeWorld, err := newWorld(size)
		if err != nil {
			t.Fatal(err)
		}
		if closeWorld == nil {
			closeWorld = func() {}
		}
		return comms, func() { closeWorld(); check() }
	}

	t.Run("SendRetains", func(t *testing.T) {
		comms, done := world(t, 2)
		defer done()
		if got := runtime.SendRetains(comms[0]); got != o.WantSendRetains {
			t.Errorf("SendRetains = %v, transport promises %v", got, o.WantSendRetains)
		}
	})

	// Frames from ranks outside the candidate set must stay queued even when
	// they arrived first — they belong to a different logical receive (e.g.
	// the next exchange reusing the same stage tag).
	t.Run("SenderFilter", func(t *testing.T) {
		comms, done := world(t, 3)
		defer done()
		if err := comms[2].Send(0, 7, []byte("early-but-unlisted")); err != nil {
			t.Fatal(err)
		}
		if err := comms[1].Send(0, 7, []byte("listed")); err != nil {
			t.Fatal(err)
		}
		from, payload, err := runtime.RecvAnyOf(comms[0], 7, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if from != 1 || string(payload) != "listed" {
			t.Fatalf("got from=%d payload=%q, want the listed sender", from, payload)
		}
		got, err := comms[0].Recv(2, 7)
		if err != nil || string(got) != "early-but-unlisted" {
			t.Fatalf("queued frame lost: %q, %v", got, err)
		}
	})

	// Frames with other tags stay queued: a fast neighbor's next-stage frame
	// must not be matched by the current stage's receive.
	t.Run("TagFilter", func(t *testing.T) {
		comms, done := world(t, 2)
		defer done()
		if err := comms[1].Send(0, 8, []byte("next-stage")); err != nil {
			t.Fatal(err)
		}
		if err := comms[1].Send(0, 7, []byte("this-stage")); err != nil {
			t.Fatal(err)
		}
		from, payload, err := runtime.RecvAnyOf(comms[0], 7, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if from != 1 || string(payload) != "this-stage" {
			t.Fatalf("got %q from %d, want the tag-7 frame", payload, from)
		}
		got, err := comms[0].Recv(1, 8)
		if err != nil || string(got) != "next-stage" {
			t.Fatalf("tag-8 frame lost: %q, %v", got, err)
		}
	})

	// RecvAnyOf must match any of several pending candidates and drain them
	// all, whatever order the transport delivered them in.
	t.Run("DrainsAllCandidates", func(t *testing.T) {
		comms, done := world(t, 4)
		defer done()
		for _, r := range []int{1, 2, 3} {
			if err := comms[r].Send(0, 9, []byte{byte(r)}); err != nil {
				t.Fatal(err)
			}
		}
		pending := map[int]bool{1: true, 2: true, 3: true}
		for len(pending) > 0 {
			from, payload, err := runtime.RecvAnyOf(comms[0], 9, []int{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			if !pending[from] {
				t.Fatalf("sender %d matched twice or unexpected", from)
			}
			if len(payload) != 1 || payload[0] != byte(from) {
				t.Fatalf("payload %x does not match sender %d", payload, from)
			}
			delete(pending, from)
		}
	})

	if o.StrictArrivalOrder {
		// RecvAnyOf must hand out the earliest-arrived deliverable frame, in
		// the order senders appended them — not in candidate-list order.
		t.Run("ArrivalOrder", func(t *testing.T) {
			comms, done := world(t, 3)
			defer done()
			if err := comms[2].Send(0, 7, []byte("from2")); err != nil {
				t.Fatal(err)
			}
			if err := comms[1].Send(0, 7, []byte("from1")); err != nil {
				t.Fatal(err)
			}
			from, payload, err := runtime.RecvAnyOf(comms[0], 7, []int{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			if from != 2 || string(payload) != "from2" {
				t.Fatalf("first match: from=%d payload=%q, want rank 2 (earliest arrival)", from, payload)
			}
			from, payload, err = runtime.RecvAnyOf(comms[0], 7, []int{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			if from != 1 || string(payload) != "from1" {
				t.Fatalf("second match: from=%d payload=%q", from, payload)
			}
		})
	}

	if o.TestOutOfRange {
		// The transport's own matcher must reject malformed candidate lists
		// instead of blocking on a rank that cannot exist.
		t.Run("NativeMatcherValidation", func(t *testing.T) {
			comms, done := world(t, 2)
			defer done()
			ar, ok := comms[0].(runtime.AnyReceiver)
			if !ok {
				t.Fatal("transport does not implement AnyReceiver")
			}
			if _, _, err := ar.RecvAnyOf(1, nil); err == nil {
				t.Error("empty candidate list accepted")
			}
			if _, _, err := ar.RecvAnyOf(1, []int{5}); err == nil {
				t.Error("out-of-range candidate accepted")
			}
		})
	}

	if o.TestClose {
		// A closed world must wake a blocked RecvAnyOf with the typed
		// teardown error rather than leaving it waiting forever.
		t.Run("CloseWakesReceiver", func(t *testing.T) {
			comms, done := world(t, 2)
			errCh := make(chan error, 1)
			go func() {
				_, _, err := runtime.RecvAnyOf(comms[0], 3, []int{1})
				errCh <- err
			}()
			done()
			if err := <-errCh; !errors.Is(err, runtime.ErrClosed) {
				t.Fatalf("RecvAnyOf returned %v after world close, want runtime.ErrClosed", err)
			}
		})
	}
}

// fakeComm is a minimal Comm for the helper-semantics suite.
type fakeComm struct {
	rank, size int
}

func (f *fakeComm) Rank() int                     { return f.rank }
func (f *fakeComm) Size() int                     { return f.size }
func (f *fakeComm) Send(int, int, []byte) error   { return nil }
func (f *fakeComm) Recv(int, int) ([]byte, error) { return nil, nil }
func (f *fakeComm) Barrier() error                { return nil }

// recvOnlyComm is a plain Comm without arrival-order support; RecvAnyOf
// must fall back to a targeted Recv on the first candidate.
type recvOnlyComm struct {
	fakeComm
	recvCalls []int
}

func (r *recvOnlyComm) Recv(from, tag int) ([]byte, error) {
	r.recvCalls = append(r.recvCalls, from)
	return []byte(fmt.Sprintf("%d/%d", from, tag)), nil
}

// optOutComm advertises AnyReceiver but reports ErrNoRecvAny (the conforming
// answer for a wrapper whose inner transport lacks a matcher); the helper
// must then fall back, not surface the sentinel.
type optOutComm struct {
	recvOnlyComm
	anyCalls int
}

func (o *optOutComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	o.anyCalls++
	return -1, nil, runtime.ErrNoRecvAny
}

// nativeComm has a working matcher; the helper must use it directly.
type nativeComm struct {
	recvOnlyComm
}

func (n *nativeComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	last := from[len(from)-1]
	return last, []byte("native"), nil
}

// SeamFake is an in-memory Comm whose answer on every optional seam is a
// field, for tests of whatever sits between an engine and a transport
// (decorators, composites). Zero fields are each seam's "nothing to
// declare" answer, except that a zero Retains is the non-default one (an
// unknown Comm is assumed to retain). Send and HintTraffic record their
// arguments. Recv returns "recv:<from>"; RecvAnyOf serves the LAST
// candidate as "any:<from>", an answer no fixed-order fallback produces.
type SeamFake struct {
	Me, World    int
	Retains      bool
	ResLo, ResHi int
	Links        []runtime.LinkStats
	Hints        [][]runtime.StageTraffic
	Sent         []int
}

func (f *SeamFake) Rank() int      { return f.Me }
func (f *SeamFake) Size() int      { return f.World }
func (f *SeamFake) Barrier() error { return nil }

func (f *SeamFake) Send(to, _ int, _ []byte) error {
	f.Sent = append(f.Sent, to)
	return nil
}

func (f *SeamFake) Recv(from, _ int) ([]byte, error) {
	return []byte(fmt.Sprintf("recv:%d", from)), nil
}

func (f *SeamFake) RecvAnyOf(_ int, from []int) (int, []byte, error) {
	last := from[len(from)-1]
	return last, []byte(fmt.Sprintf("any:%d", last)), nil
}

func (f *SeamFake) SendRetains() bool                         { return f.Retains }
func (f *SeamFake) HintTraffic(stages []runtime.StageTraffic) { f.Hints = append(f.Hints, stages) }
func (f *SeamFake) LinkStats() []runtime.LinkStats            { return f.Links }
func (f *SeamFake) ReservedTags() (lo, hi int)                { return f.ResLo, f.ResHi }

// RunWrapperTransparency checks that wrap is transparent to the five
// optional Comm seams: over a SeamFake (rank 0 of 4) with a distinctive
// answer on each, every runtime helper must give the fake's answer through
// the wrapped Comm. A decorator that drops a seam changes the program it
// decorates — a dropped hint turns off udpnet's schedule-driven flow
// control, a dropped reservation hides a control tag from hier's collision
// check — so every decorator and composite in the tree calls this.
func RunWrapperTransparency(t *testing.T, wrap func(runtime.Comm) runtime.Comm) {
	t.Helper()
	inner := &SeamFake{
		World: 4,
		ResLo: 1 << 30, ResHi: 1<<30 + 2,
		Links: []runtime.LinkStats{{Peer: 2, FramesSent: 7, PktsSent: 9}},
	}
	c := wrap(inner)
	if runtime.SendRetains(c) {
		t.Error("SendRetains: wrapper answers true over a non-retaining Comm")
	}
	stages := []runtime.StageTraffic{{
		Tag: 100, Dim: 1,
		Sends: []runtime.PeerTraffic{{Peer: 1, Frames: 1}},
		Recvs: []runtime.PeerTraffic{{Peer: 3, Frames: 1}},
	}}
	runtime.HintTraffic(c, stages)
	if len(inner.Hints) != 1 || !reflect.DeepEqual(inner.Hints[0], stages) {
		t.Errorf("HintTraffic: wrapped Comm saw %+v, want one hint %+v", inner.Hints, stages)
	}
	if got := runtime.LinkStatsOf(c); !reflect.DeepEqual(got, inner.Links) {
		t.Errorf("LinkStatsOf: %+v through the wrapper, want %+v", got, inner.Links)
	}
	if lo, hi, ok := runtime.ReservedTagsOf(c); !ok || lo != inner.ResLo || hi != inner.ResHi {
		t.Errorf("ReservedTagsOf: [%#x,%#x) ok=%v through the wrapper, want [%#x,%#x)", lo, hi, ok, inner.ResLo, inner.ResHi)
	}
	from, payload, err := runtime.RecvAnyOf(c, 100, []int{1, 2, 3})
	if err != nil || from != 3 || string(payload) != "any:3" {
		t.Errorf("RecvAnyOf: from=%d payload=%q err=%v through the wrapper, want the native matcher's (3, \"any:3\")", from, payload, err)
	}
}

// RunHelperSemantics exercises the runtime.RecvAnyOf and runtime.SendRetains
// helpers against in-memory fakes: fallback on plain Comms, fallback on the
// ErrNoRecvAny sentinel, native matcher passthrough, empty-list rejection,
// and the SendRetains default.
func RunHelperSemantics(t *testing.T) {
	t.Run("FallsBackToFixedOrder", func(t *testing.T) {
		c := &recvOnlyComm{fakeComm: fakeComm{rank: 0, size: 4}}
		from, payload, err := runtime.RecvAnyOf(c, 9, []int{2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if from != 2 || string(payload) != "2/9" {
			t.Fatalf("fallback matched from=%d payload=%q, want targeted Recv(2, 9)", from, payload)
		}
		if len(c.recvCalls) != 1 || c.recvCalls[0] != 2 {
			t.Fatalf("fallback issued %v, want a single Recv from the first candidate", c.recvCalls)
		}
	})

	t.Run("SentinelTriggersFallback", func(t *testing.T) {
		c := &optOutComm{recvOnlyComm: recvOnlyComm{fakeComm: fakeComm{rank: 0, size: 4}}}
		from, _, err := runtime.RecvAnyOf(c, 5, []int{3, 1})
		if err != nil {
			t.Fatal(err)
		}
		if c.anyCalls != 1 {
			t.Fatalf("native matcher consulted %d times, want 1", c.anyCalls)
		}
		if from != 3 || len(c.recvCalls) != 1 || c.recvCalls[0] != 3 {
			t.Fatalf("fallback not taken: from=%d recvCalls=%v", from, c.recvCalls)
		}
	})

	t.Run("UsesNativeMatcher", func(t *testing.T) {
		c := &nativeComm{recvOnlyComm: recvOnlyComm{fakeComm: fakeComm{rank: 0, size: 4}}}
		from, payload, err := runtime.RecvAnyOf(c, 5, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if from != 2 || string(payload) != "native" {
			t.Fatalf("native matcher bypassed: from=%d payload=%q", from, payload)
		}
		if len(c.recvCalls) != 0 {
			t.Fatalf("fallback Recv issued despite native matcher: %v", c.recvCalls)
		}
	})

	t.Run("RejectsEmptyCandidates", func(t *testing.T) {
		c := &recvOnlyComm{fakeComm: fakeComm{rank: 0, size: 4}}
		if _, _, err := runtime.RecvAnyOf(c, 1, nil); err == nil {
			t.Fatal("empty candidate list accepted")
		}
	})

	t.Run("SendRetainsDefaultsAndPassthrough", func(t *testing.T) {
		if !runtime.SendRetains(&fakeComm{}) {
			t.Error("unknown transports must default to retaining sends")
		}
		if runtime.SendRetains(&SeamFake{Retains: false}) {
			t.Error("SendRetainer answer not forwarded")
		}
		if !runtime.SendRetains(&SeamFake{Retains: true}) {
			t.Error("SendRetainer answer not forwarded")
		}
	})
}
