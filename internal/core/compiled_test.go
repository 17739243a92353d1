package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

// compiledHarness holds one rank's gather layout for the compiled tests:
// x is a flat slice whose index ranges map to destinations, so the same
// values can be shipped either as legacy payload bytes or through a
// compiled Replay's gather lists.
type compiledHarness struct {
	xlen   int
	gather map[int][]int32
}

// buildHarness lays out a gather range per destination pair (plus an
// optional self range) and returns the harness.
func buildHarness(pairs []Pair, selfWords int, me int) *compiledHarness {
	h := &compiledHarness{gather: map[int][]int32{}}
	add := func(dst, words int) {
		idx := make([]int32, words)
		for i := range idx {
			idx[i] = int32(h.xlen + i)
		}
		h.gather[dst] = idx
		h.xlen += words
	}
	for _, pr := range pairs {
		add(pr.Dst, int(pr.Words))
	}
	if selfWords > 0 {
		add(me, selfWords)
	}
	return h
}

// fill populates x so that the value shipped from me to dst at position i
// is testVal(me, dst, round, i).
func (h *compiledHarness) fill(x []float64, me, round int) {
	for dst, idx := range h.gather {
		for i, g := range idx {
			x[g] = testVal(me, dst, round, i)
		}
	}
}

// payloadBytes renders the same values as legacy payload byte slices.
func (h *compiledHarness) payloadBytes(me, round int) map[int][]byte {
	out := make(map[int][]byte, len(h.gather))
	for dst, idx := range h.gather {
		b := make([]byte, 8*len(idx))
		for i := range idx {
			putF64(b[8*i:], testVal(me, dst, round, i))
		}
		out[dst] = b
	}
	return out
}

func testVal(src, dst, round, i int) float64 {
	return float64(src+1)*1e6 + float64(dst+1)*1e3 + float64(round)*10 + float64(i) + 0.5
}

func putF64(b []byte, v float64) {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(bits >> (8 * i))
	}
}

func getF64(b []byte) float64 {
	var bits uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(b[i]) << (8 * i)
	}
	return math.Float64frombits(bits)
}

// checkHaloMatches compares a compiled halo against legacy deliveries
// (both are ordered by source, then destination).
func checkHaloMatches(d *Delivered, halo []float64) error {
	at := 0
	for _, sub := range d.Subs {
		words := len(sub.Data) / 8
		if at+words > len(halo) {
			return fmt.Errorf("halo too short: %d words, need %d+%d", len(halo), at, words)
		}
		for i := 0; i < words; i++ {
			want := getF64(sub.Data[8*i:])
			if math.Float64bits(halo[at+i]) != math.Float64bits(want) {
				return fmt.Errorf("delivery %d->%d word %d: halo %v, legacy %v", sub.Src, sub.Dst, i, halo[at+i], want)
			}
		}
		at += words
	}
	if at != len(halo) {
		return fmt.Errorf("halo has %d words, legacy delivered %d", len(halo), at)
	}
	return nil
}

// TestCompiledMatchesPersistent replays several topologies (including a
// non-power-of-two factored one) both through the legacy map-based Run and
// the compiled Replay, with identical values, and requires bit-identical
// deliveries. Even ranks also self-send to cover the selfOp path.
func TestCompiledMatchesPersistent(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, dims := range [][]int{{4, 4}, {2, 2, 2, 2}, {3, 4}, {16}} {
		tp := vpt.MustNew(dims...)
		K := tp.Size()
		s := randomSendSets(rng, K, 2, 3, 4)
		w, err := chanpt.NewWorld(K, 2)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c runtime.Comm) error {
			me := c.Rank()
			selfWords := 0
			if me%2 == 0 {
				selfWords = 2
			}
			h := buildHarness(s.Sets[me], selfWords, me)
			p, _, err := NewPersistent(c, tp, h.payloadBytes(me, 0))
			if err != nil {
				return err
			}
			r, err := p.Compile(h.xlen, h.gather)
			if err != nil {
				return fmt.Errorf("rank %d compile: %w", me, err)
			}
			x := make([]float64, h.xlen)
			halo := make([]float64, r.HaloWords())
			for round := 1; round <= 3; round++ {
				// Legacy first, compiled second: distinct collective calls,
				// same values.
				legacy, err := p.Run(c, h.payloadBytes(me, round))
				if err != nil {
					return err
				}
				h.fill(x, me, round)
				if err := r.Run(c, x, halo); err != nil {
					return fmt.Errorf("rank %d round %d compiled run: %w", me, round, err)
				}
				if err := checkHaloMatches(legacy, halo); err != nil {
					return fmt.Errorf("dims %v rank %d round %d: %w", dims, me, round, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDirectReplayMatchesSerial runs the compiled baseline (BL) for three
// rounds and holds every rank's halo to the serial expectation: the
// payloads each source's harness ships to it, in source order.
func TestDirectReplayMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	K := 12
	s := randomSendSets(rng, K, 2, 3, 4)
	recv := s.RecvSets()
	hs := make([]*compiledHarness, K)
	for me := range hs {
		selfWords := 0
		if me%3 == 0 {
			selfWords = 1
		}
		hs[me] = buildHarness(s.Sets[me], selfWords, me)
	}
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		me := c.Rank()
		h := hs[me]
		srcWords := map[int]int{}
		for _, pr := range recv[me] {
			srcWords[pr.Dst] = int(pr.Words)
		}
		r, err := NewDirectReplay(me, K, h.xlen, h.gather, srcWords)
		if err != nil {
			return fmt.Errorf("rank %d direct compile: %w", me, err)
		}
		x := make([]float64, h.xlen)
		halo := make([]float64, r.HaloWords())
		for round := 0; round < 3; round++ {
			want := &Delivered{}
			for src := range hs {
				if b, ok := hs[src].payloadBytes(src, round)[me]; ok {
					want.Subs = append(want.Subs, msg.Submessage{Src: src, Dst: me, Data: b})
				}
			}
			h.fill(x, me, round)
			if err := r.Run(c, x, halo); err != nil {
				return fmt.Errorf("rank %d round %d direct replay: %w", me, round, err)
			}
			if err := checkHaloMatches(want, halo); err != nil {
				return fmt.Errorf("rank %d round %d: %w", me, round, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompileValidation exercises the compile- and run-time error paths on
// a single rank's view of a tiny world.
func TestCompileValidation(t *testing.T) {
	tp := vpt.MustNew(2, 2)
	w, _ := chanpt.NewWorld(4, 2)
	err := w.Run(func(c runtime.Comm) error {
		me := c.Rank()
		dst := (me + 1) % 4
		p, _, err := NewPersistent(c, tp, map[int][]byte{dst: make([]byte, 16)})
		if err != nil {
			return err
		}
		if _, err := p.Compile(2, map[int][]int32{}); err == nil {
			return fmt.Errorf("rank %d: missing destination accepted", me)
		}
		if _, err := p.Compile(2, map[int][]int32{(me + 2) % 4: {0, 1}}); err == nil {
			return fmt.Errorf("rank %d: unknown destination accepted", me)
		}
		if _, err := p.Compile(2, map[int][]int32{dst: {0}}); err == nil {
			return fmt.Errorf("rank %d: wrong gather size accepted", me)
		}
		if _, err := p.Compile(2, map[int][]int32{dst: {0, 7}}); err == nil {
			return fmt.Errorf("rank %d: out-of-range gather index accepted", me)
		}
		r, err := p.Compile(2, map[int][]int32{dst: {1, 0}})
		if err != nil {
			return fmt.Errorf("rank %d: valid compile rejected: %w", me, err)
		}
		if err := r.Run(c, make([]float64, 3), make([]float64, r.HaloWords())); err == nil {
			return fmt.Errorf("rank %d: wrong x length accepted", me)
		}
		if err := r.Run(c, make([]float64, 2), make([]float64, r.HaloWords()+1)); err == nil {
			return fmt.Errorf("rank %d: wrong halo length accepted", me)
		}
		// Validation failures consume no traffic: a correct collective run
		// still succeeds afterwards.
		x := []float64{float64(me), float64(me) + 0.25}
		halo := make([]float64, r.HaloWords())
		if err := r.Run(c, x, halo); err != nil {
			return fmt.Errorf("rank %d: run after rejects: %w", me, err)
		}
		// gather order {1, 0} reverses the two words on the wire.
		src := (me + 3) % 4
		if want := []float64{float64(src) + 0.25, float64(src)}; halo[0] != want[0] || halo[1] != want[1] {
			return fmt.Errorf("rank %d: halo %v, want %v", me, halo, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompileRejectsOddSizedDeliveries checks that a pattern learned with
// non-word-sized payloads cannot be compiled.
func TestCompileRejectsOddSizedDeliveries(t *testing.T) {
	tp := vpt.MustNew(2, 2)
	w, _ := chanpt.NewWorld(4, 2)
	err := w.Run(func(c runtime.Comm) error {
		me := c.Rank()
		dst := (me + 1) % 4
		p, _, err := NewPersistent(c, tp, map[int][]byte{dst: make([]byte, 7)})
		if err != nil {
			return err
		}
		if _, err := p.Compile(1, map[int][]int32{dst: {0}}); err == nil {
			return fmt.Errorf("rank %d: 7-byte payload compiled", me)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
