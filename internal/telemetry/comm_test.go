package telemetry

import (
	"errors"
	"testing"

	"stfw/internal/runtime"
	"stfw/internal/transport/tptest"
)

// fakeComm is a minimal loopback transport for wrapper tests: Send succeeds
// (or fails when told to), Recv replies with a canned payload.
type fakeComm struct {
	rank, size int
	reply      []byte
	failSend   error
	sends      int
	barriers   int
}

func (f *fakeComm) Rank() int { return f.rank }
func (f *fakeComm) Size() int { return f.size }
func (f *fakeComm) Send(to, tag int, payload []byte) error {
	if f.failSend != nil {
		return f.failSend
	}
	f.sends++
	return nil
}
func (f *fakeComm) Recv(from, tag int) ([]byte, error) { return f.reply, nil }
func (f *fakeComm) Barrier() error                     { f.barriers++; return nil }

// anyComm adds arrival-order receive support on top of fakeComm.
type anyComm struct {
	fakeComm
	anySender int
}

func (a *anyComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	return a.anySender, a.reply, nil
}

func TestWrapCommNilRegistry(t *testing.T) {
	var g *Registry
	c := &fakeComm{rank: 0, size: 1}
	if got := g.WrapComm(c, nil); got != runtime.Comm(c) {
		t.Fatal("nil registry should return the comm unchanged")
	}
	comms := []runtime.Comm{c}
	if got := g.WrapComms(comms, nil); got[0] != runtime.Comm(c) {
		t.Fatal("nil registry WrapComms should be identity")
	}
}

func TestWrapCommCounts(t *testing.T) {
	g := MustNew(Config{Ranks: 2, Stages: 4})
	stageOf := func(tag int) (int, bool) {
		if tag < 0 {
			return 0, false
		}
		return tag, true
	}
	f := &fakeComm{rank: 1, size: 2, reply: make([]byte, 96)}
	c := g.WrapComm(f, stageOf)

	if c.Rank() != 1 || c.Size() != 2 {
		t.Fatal("wrapper must preserve identity")
	}
	if err := c.Send(0, 2, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Unmapped tag folds into stage 0.
	if err := c.Send(0, -9, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}

	r := g.Rank(1)
	if cs := r.Counters(2); cs.Sends != 1 || cs.SendBytes != 40 {
		t.Fatalf("stage 2 counters = %+v", cs)
	}
	if cs := r.Counters(3); cs.Recvs != 1 || cs.RecvBytes != 96 {
		t.Fatalf("stage 3 counters = %+v", cs)
	}
	if cs := r.Counters(0); cs.Sends != 1 || cs.SendBytes != 8 {
		t.Fatalf("unmapped tag counters = %+v", cs)
	}
	if r.Barriers.Load() != 1 || r.BarrierNs.Load() < 0 {
		t.Fatalf("barrier accounting = %d/%dns", r.Barriers.Load(), r.BarrierNs.Load())
	}
	if g.Snapshot().FrameSizes.Count != 2 {
		t.Fatal("both sends should hit the frame-size histogram")
	}
}

func TestWrapCommFailedSendNotCounted(t *testing.T) {
	g := MustNew(Config{Ranks: 1, Stages: 1})
	boom := errors.New("boom")
	c := g.WrapComm(&fakeComm{rank: 0, size: 1, failSend: boom}, nil)
	if err := c.Send(0, 0, []byte{1}); !errors.Is(err, boom) {
		t.Fatalf("send error = %v", err)
	}
	if cs := g.Rank(0).Counters(0); cs.Sends != 0 {
		t.Fatalf("failed send was counted: %+v", cs)
	}
}

func TestWrapCommRecvAny(t *testing.T) {
	g := MustNew(Config{Ranks: 3, Stages: 2})

	// Underlying transport supports arrival-order receive: delegate + count.
	a := &anyComm{fakeComm: fakeComm{rank: 2, size: 3, reply: make([]byte, 16)}, anySender: 1}
	c := g.WrapComm(a, func(tag int) (int, bool) { return 1, true })
	src, payload, err := runtime.RecvAnyOf(c, 7, []int{0, 1})
	if err != nil || src != 1 || len(payload) != 16 {
		t.Fatalf("RecvAnyOf = %d/%d bytes/%v", src, len(payload), err)
	}
	if cs := g.Rank(2).Counters(1); cs.Recvs != 1 || cs.RecvBytes != 16 {
		t.Fatalf("counted = %+v", cs)
	}

	// Plain transport: wrapper reports ErrNoRecvAny, runtime falls back to
	// the counted fixed-order Recv.
	p := g.WrapComm(&fakeComm{rank: 0, size: 3, reply: make([]byte, 8)}, nil)
	ar, ok := p.(runtime.AnyReceiver)
	if !ok {
		t.Fatal("wrapper should advertise AnyReceiver")
	}
	if _, _, err := ar.RecvAnyOf(7, []int{1}); !errors.Is(err, runtime.ErrNoRecvAny) {
		t.Fatalf("want ErrNoRecvAny, got %v", err)
	}
	src, payload, err = runtime.RecvAnyOf(p, 7, []int{1})
	if err != nil || src != 1 || len(payload) != 8 {
		t.Fatalf("fallback RecvAnyOf = %d/%d bytes/%v", src, len(payload), err)
	}
	if cs := g.Rank(0).Counters(0); cs.Recvs != 1 {
		t.Fatalf("fallback recv not counted: %+v", cs)
	}
}

func TestWrapCommSendRetains(t *testing.T) {
	g := MustNew(Config{Ranks: 1, Stages: 1})
	c := g.WrapComm(&fakeComm{rank: 0, size: 1}, nil)
	sr, ok := c.(runtime.SendRetainer)
	if !ok {
		t.Fatal("wrapper should advertise SendRetainer")
	}
	// fakeComm is not a SendRetainer, so the conservative answer is true.
	if !sr.SendRetains() {
		t.Fatal("unknown transport should report retaining sends")
	}
}

// TestWrapCommTransparent: the counting wrapper answers every optional
// seam with the wrapped transport's answer (a hier world over wrapped
// udpnet subs needs ReservedTags through it for its collision check).
func TestWrapCommTransparent(t *testing.T) {
	g := MustNew(Config{Ranks: 4, Stages: 1})
	tptest.RunWrapperTransparency(t, func(c runtime.Comm) runtime.Comm { return g.WrapComm(c, nil) })
}
