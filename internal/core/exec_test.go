package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/vpt"
)

// frameKey addresses one directed frame of one stage.
type frameKey struct{ stage, from, to int }

// countingComm tallies the nonempty frames a world sends, keyed by
// (TagStage(tag), from, to), so an execution can be validated against the
// static Plan frame for frame.
type countingComm struct {
	mu       sync.Mutex
	stages   int
	sentMsgs []int              // per rank, nonempty frames
	frames   map[frameKey]Frame // every nonempty frame sent
	resent   []frameKey         // keys sent more than once
}

func newCounting(size, stages int) *countingComm {
	return &countingComm{stages: stages, sentMsgs: make([]int, size), frames: map[frameKey]Frame{}}
}

func (cc *countingComm) wrapAll(comms []runtime.Comm) []runtime.Comm {
	out := make([]runtime.Comm, len(comms))
	for i, c := range comms {
		out[i] = &countingEndpoint{Passthrough: runtime.Passthrough{Comm: c}, shared: cc}
	}
	return out
}

type countingEndpoint struct {
	runtime.Passthrough
	shared *countingComm
}

func (ce *countingEndpoint) Send(to, tag int, payload []byte) error {
	cc := ce.shared
	stage, ok := TagStage(tag, cc.stages)
	if m, err := msg.Decode(payload); ok && err == nil && len(m.Subs) > 0 {
		k := frameKey{stage, ce.Rank(), to}
		cc.mu.Lock()
		cc.sentMsgs[ce.Rank()]++
		if _, dup := cc.frames[k]; dup {
			cc.resent = append(cc.resent, k)
		}
		payload := 0
		for _, s := range m.Subs {
			payload += len(s.Data)
		}
		cc.frames[k] = Frame{From: k.from, To: to, Words: int64(payload / 8), Subs: len(m.Subs)}
		cc.mu.Unlock()
	}
	return ce.Comm.Send(to, tag, payload)
}

// RecvAnyOf keeps the wrapped transport's arrival-order matcher: counting
// intercepts sends only.
func (ce *countingEndpoint) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	return runtime.RecvAnyOf(ce.Comm, tag, from)
}

// payloadWord encodes (src, dst, salt) into one 8-byte word so every
// submessage payload is unique and checkable.
func payloadWord(src, dst, salt int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b[0:], uint32(src*65536+dst))
	binary.LittleEndian.PutUint32(b[4:], uint32(salt))
	return b
}

// payloadWords returns words 8-byte words derived from (src, dst).
func payloadWords(src, dst int, words int64) []byte {
	b := make([]byte, 0, words*8)
	for w := int64(0); w < words; w++ {
		b = append(b, payloadWord(src, dst, int(w))...)
	}
	return b
}

// runExchange executes Exchange on every rank of a fresh channel world and
// returns the deliveries, plus the nonempty frames actually sent.
func runExchange(t *testing.T, tp *vpt.Topology, s *SendSets) ([]*Delivered, *countingComm) {
	t.Helper()
	w, err := chanpt.NewWorld(tp.Size(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return runExchangeOn(t, w.Comms(), tp, s)
}

// runExchangeOn is runExchange over a given world.
func runExchangeOn(t *testing.T, comms []runtime.Comm, tp *vpt.Topology, s *SendSets) ([]*Delivered, *countingComm) {
	t.Helper()
	cc := newCounting(tp.Size(), tp.N())
	got := make([]*Delivered, tp.Size())
	err := runtime.Run(cc.wrapAll(comms), func(c runtime.Comm) error {
		payloads := map[int][]byte{}
		for _, pr := range s.Sets[c.Rank()] {
			payloads[pr.Dst] = payloadWords(c.Rank(), pr.Dst, pr.Words)
		}
		d, err := Exchange(c, tp, payloads)
		if err != nil {
			return err
		}
		got[c.Rank()] = d
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, cc
}

// checkDeliveries verifies that every rank received exactly the payloads the
// send sets say it should, intact and exactly once.
func checkDeliveries(t *testing.T, s *SendSets, got []*Delivered) {
	t.Helper()
	recv := s.RecvSets()
	for dst := 0; dst < s.K; dst++ {
		want := recv[dst]
		subs := got[dst].Subs
		if len(subs) != len(want) {
			t.Fatalf("rank %d: got %d deliveries, want %d", dst, len(subs), len(want))
		}
		for i, pr := range want {
			sub := subs[i] // both sorted by source
			if sub.Src != pr.Dst {
				t.Fatalf("rank %d delivery %d: src %d, want %d", dst, i, sub.Src, pr.Dst)
			}
			if sub.Dst != dst {
				t.Fatalf("rank %d delivery %d: dst %d", dst, i, sub.Dst)
			}
			if wantData := payloadWords(sub.Src, dst, pr.Words); !bytes.Equal(sub.Data, wantData) {
				t.Fatalf("rank %d delivery from %d: payload corrupted", dst, sub.Src)
			}
		}
	}
}

func TestExchangeDeliversAllTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][]int{{16}, {4, 4}, {2, 8}, {8, 2}, {2, 2, 2, 2}, {4, 2, 2}} {
		tp := vpt.MustNew(dims...)
		s := randomSendSets(rng, tp.Size(), 2, 3, 4)
		got, _ := runExchange(t, tp, s)
		checkDeliveries(t, s, got)
	}
}

func TestExchangeCompleteExchange(t *testing.T) {
	tp := vpt.MustNew(4, 4)
	s := Complete(16, 2)
	got, cc := runExchange(t, tp, s)
	checkDeliveries(t, s, got)
	// In the complete exchange every rank sends exactly the bound.
	for q := 0; q < 16; q++ {
		if cc.sentMsgs[q] != MaxMessageBound(tp) {
			t.Errorf("rank %d sent %d msgs, want bound %d", q, cc.sentMsgs[q], MaxMessageBound(tp))
		}
	}
}

// TestExchangeMatchesPlanCounts: the nonempty frames a live Exchange sends
// are plan.Stages frame for frame — same (stage, from, to) set, same words,
// same submessage counts, none sent twice — on an in-process and a socket
// transport, receiving in arrival order.
func TestExchangeMatchesPlanCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	balanced, err := vpt.NewBalanced(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	factored, err := vpt.NewFactored(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*vpt.Topology{
		vpt.MustNew(4, 4), vpt.MustNew(2, 2, 2, 2), vpt.MustNew(4, 2, 2), vpt.MustNew(16), balanced, factored,
	} {
		s := randomSendSets(rng, tp.Size(), 2, 3, 5)
		plan, err := BuildPlan(tp, s)
		if err != nil {
			t.Fatal(err)
		}
		want := map[frameKey]Frame{}
		for d, stage := range plan.Stages {
			for _, f := range stage {
				want[frameKey{d, f.From, f.To}] = f
			}
		}
		for _, transport := range []string{"chanpt", "tcpnet"} {
			t.Run(fmt.Sprintf("%s/dims=%v", transport, tp.Dims()), func(t *testing.T) {
				var comms []runtime.Comm
				if transport == "chanpt" {
					w, err := chanpt.NewWorld(tp.Size(), 2)
					if err != nil {
						t.Fatal(err)
					}
					comms = w.Comms()
				} else {
					w, err := tcpnet.NewWorld(tp.Size())
					if err != nil {
						t.Fatal(err)
					}
					defer w.Close()
					comms = w.Comms()
				}
				got, cc := runExchangeOn(t, comms, tp, s)
				checkDeliveries(t, s, got)
				if len(cc.resent) != 0 {
					t.Errorf("frames sent twice: %v", cc.resent)
				}
				if len(cc.frames) != len(want) {
					t.Errorf("executed %d nonempty frames, plan has %d", len(cc.frames), len(want))
				}
				for k, f := range cc.frames {
					if w, ok := want[k]; !ok {
						t.Errorf("executed frame %d->%d in stage %d not in plan", k.from, k.to, k.stage)
					} else if f != w {
						t.Errorf("frame %d->%d stage %d carried %d words in %d submessages, plan says %d in %d",
							k.from, k.to, k.stage, f.Words, f.Subs, w.Words, w.Subs)
					}
				}
			})
		}
	}
}

// TestTagStageMapping: the tag-to-stage attribution the frame recorder
// above (and every telemetry wrapper) relies on.
func TestTagStageMapping(t *testing.T) {
	if d, ok := TagStage(StageTag(3), 5); !ok || d != 3 {
		t.Errorf("TagStage(StageTag(3)) = %d, %v", d, ok)
	}
	if _, ok := TagStage(StageTag(5), 5); ok {
		t.Error("stage beyond max accepted")
	}
	if _, ok := TagStage(12345, 5); ok {
		t.Error("foreign tag accepted")
	}
}

func TestExchangeSelfSend(t *testing.T) {
	tp := vpt.MustNew(2, 2)
	w, _ := chanpt.NewWorld(4, 2)
	err := w.Run(func(c runtime.Comm) error {
		d, err := Exchange(c, tp, map[int][]byte{c.Rank(): []byte("self")})
		if err != nil {
			return err
		}
		if len(d.Subs) != 1 || d.Subs[0].Src != c.Rank() || string(d.Subs[0].Data) != "self" {
			return fmt.Errorf("rank %d: self payload lost: %+v", c.Rank(), d.Subs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeEmptyPayloads(t *testing.T) {
	tp := vpt.MustNew(2, 2, 2)
	w, _ := chanpt.NewWorld(8, 2)
	err := w.Run(func(c runtime.Comm) error {
		d, err := Exchange(c, tp, nil)
		if err != nil {
			return err
		}
		if len(d.Subs) != 0 {
			return fmt.Errorf("rank %d got %d phantom deliveries", c.Rank(), len(d.Subs))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeZeroLengthData(t *testing.T) {
	// Zero-byte payloads must be routed and delivered like any other
	// submessage.
	tp := vpt.MustNew(2, 2)
	w, _ := chanpt.NewWorld(4, 2)
	err := w.Run(func(c runtime.Comm) error {
		dst := (c.Rank() + 3) % 4
		d, err := Exchange(c, tp, map[int][]byte{dst: {}})
		if err != nil {
			return err
		}
		if len(d.Subs) != 1 {
			return fmt.Errorf("rank %d: %d deliveries, want 1", c.Rank(), len(d.Subs))
		}
		if want := (c.Rank() + 1) % 4; d.Subs[0].Src != want {
			return fmt.Errorf("rank %d: delivery from %d, want %d", c.Rank(), d.Subs[0].Src, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeTopologyMismatch(t *testing.T) {
	tp := vpt.MustNew(2, 2) // size 4, world size 2
	w, _ := chanpt.NewWorld(2, 1)
	err := w.Run(func(c runtime.Comm) error {
		_, err := Exchange(c, tp, nil)
		if err == nil {
			return fmt.Errorf("size mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeBadDestination(t *testing.T) {
	tp := vpt.MustNew(2, 2)
	w, _ := chanpt.NewWorld(4, 2)
	errs := make([]error, 4)
	_ = runtime.Run(w.Comms(), func(c runtime.Comm) error {
		if c.Rank() == 0 {
			_, err := Exchange(c, tp, map[int][]byte{99: []byte("x")})
			errs[0] = err
			return nil // do not abort: other ranks would block otherwise
		}
		return nil
	})
	if errs[0] == nil {
		t.Error("out-of-range destination accepted")
	}
}

// TestDirectAndSTFWAgree runs one pattern through both schemes in one
// world: the one-shot store-and-forward Exchange and the compiled baseline
// (NewDirectReplay) must deliver the same values from the same sources.
func TestDirectAndSTFWAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	K := 32
	s := randomSendSets(rng, K, 3, 2, 3)
	recv := s.RecvSets()
	tp, _ := vpt.NewBalanced(K, 5)

	w, _ := chanpt.NewWorld(K, K)
	err := w.Run(func(c runtime.Comm) error {
		me := c.Rank()
		h := buildHarness(s.Sets[me], 0, me)
		stfw, err := Exchange(c, tp, h.payloadBytes(me, 0))
		if err != nil {
			return err
		}
		srcWords := map[int]int{}
		for _, pr := range recv[me] {
			srcWords[pr.Dst] = int(pr.Words)
		}
		r, err := NewDirectReplay(me, K, h.xlen, h.gather, srcWords)
		if err != nil {
			return err
		}
		x := make([]float64, h.xlen)
		h.fill(x, me, 0)
		halo := make([]float64, r.HaloWords())
		if err := r.Run(c, x, halo); err != nil {
			return err
		}
		if err := checkHaloMatches(stfw, halo); err != nil {
			return fmt.Errorf("rank %d: BL differs from STFW: %w", me, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeLargeWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("large world")
	}
	rng := rand.New(rand.NewSource(53))
	tp, _ := vpt.NewBalanced(512, 3)
	s := randomSendSets(rng, 512, 4, 2, 2)
	got, cc := runExchange(t, tp, s)
	checkDeliveries(t, s, got)
	plan, _ := BuildPlan(tp, s)
	for q := 0; q < 512; q++ {
		if cc.sentMsgs[q] != plan.SentMsgs[q] {
			t.Fatalf("rank %d: executed %d != plan %d", q, cc.sentMsgs[q], plan.SentMsgs[q])
		}
	}
}

func BenchmarkExchange64T3(b *testing.B) {
	tp, _ := vpt.NewBalanced(64, 3)
	rng := rand.New(rand.NewSource(1))
	s := randomSendSets(rng, 64, 2, 3, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := chanpt.NewWorld(64, 2)
		err := w.Run(func(c runtime.Comm) error {
			payloads := map[int][]byte{}
			for _, pr := range s.Sets[c.Rank()] {
				payloads[pr.Dst] = payloadWords(c.Rank(), pr.Dst, pr.Words)
			}
			_, err := Exchange(c, tp, payloads)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The store-and-forward executor and router work for any mixed-radix
// topology, not just powers of two: the paper's "easily extended" case via
// vpt.NewFactored.
func TestExchangeNonPowerOfTwoK(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, c := range []struct{ K, n int }{{12, 2}, {60, 3}, {18, 2}, {100, 2}} {
		tp, err := vpt.NewFactored(c.K, c.n)
		if err != nil {
			t.Fatal(err)
		}
		s := randomSendSets(rng, c.K, 1, 2, 3)
		plan, err := BuildPlan(tp, s)
		if err != nil {
			t.Fatal(err)
		}
		got, cc := runExchange(t, tp, s)
		checkDeliveries(t, s, got)
		for q := 0; q < c.K; q++ {
			if cc.sentMsgs[q] != plan.SentMsgs[q] {
				t.Fatalf("K=%d n=%d rank %d: executed %d msgs != plan %d",
					c.K, c.n, q, cc.sentMsgs[q], plan.SentMsgs[q])
			}
			if plan.SentMsgs[q] > MaxMessageBound(tp) {
				t.Fatalf("K=%d: rank %d exceeded bound", c.K, q)
			}
		}
	}
}
