package spmv

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"stfw/internal/core"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

func TestSessionRepeatedMultiplies(t *testing.T) {
	a := testMatrix(t, 400, 3200, 60)
	part, err := partition.Greedy(a, 16, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := vpt.NewBalanced(16, 4)
	for _, opt := range []Options{
		{Method: BL},
		{Method: STFW, Topo: tp},
	} {
		// Three different input vectors through one session per rank; each
		// result must match the serial multiply.
		xs := make([][]float64, 3)
		wants := make([][]float64, 3)
		for r := range xs {
			xs[r] = testVector(a.Cols, int64(100+r))
			wants[r], _ = a.MulVec(nil, xs[r])
		}
		w, _ := chanpt.NewWorld(16, 16)
		got := make([][][]float64, 3)
		for r := range got {
			got[r] = make([][]float64, 16)
		}
		err := w.Run(func(c runtime.Comm) error {
			sess, err := NewSession(c, a, part, pat, opt)
			if err != nil {
				return err
			}
			if len(sess.OwnedRows()) == 0 && a.Rows >= 16 {
				return fmt.Errorf("rank %d owns no rows", c.Rank())
			}
			for r := range xs {
				y, err := sess.Multiply(xs[r])
				if err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
				// The compiled session reuses its result buffer across
				// multiplies; keep a copy per round.
				got[r][c.Rank()] = append([]float64(nil), y...)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", opt.Method, err)
		}
		for r := range xs {
			y, err := Reduce(part, got[r])
			if err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if math.Abs(y[i]-wants[r][i]) > 1e-9*(1+math.Abs(wants[r][i])) {
					t.Fatalf("%v round %d: y[%d] = %v, want %v", opt.Method, r, i, y[i], wants[r][i])
				}
			}
		}
	}
}

// TestMultiplySum: a lane changes nothing in y, and every rank ends with
// the same bits of the world total, on the two exchanges a session runs —
// a BL exchange followed by an allreduce, and the compiled STFW replay
// carrying the lane in its frames from the first multiply on.
func TestMultiplySum(t *testing.T) {
	const K, rounds = 8, 3
	a := testMatrix(t, 400, 3600, 50)
	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	tp := vpt.MustNew(2, 2, 2)
	x := testVector(a.Cols, 44)
	// lane is rank me's words: 1e16 on rank 0 swamps the 1s added to it
	// unless they are summed first, so the bits depend on the order.
	lane := func(me int) []float64 {
		big := 1.0
		if me == 0 {
			big = 1e16
		}
		return []float64{big, float64(me) + 0.25, -float64(me * me)}
	}
	for _, opt := range []Options{{Method: BL}, {Method: STFW, Topo: tp}} {
		sums := make([][][]float64, rounds)
		for r := range sums {
			sums[r] = make([][]float64, K)
		}
		w, err := chanpt.NewWorld(K, K)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c runtime.Comm) error {
			me := c.Rank()
			sess, err := NewSession(c, a, part, pat, opt)
			if err != nil {
				return err
			}
			for r := 0; r < rounds; r++ {
				sum := lane(me)
				y, err := sess.MultiplySum(x, sum)
				if err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
				withLane := slices.Clone(y)
				if y, err = sess.Multiply(x); err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
				for i := range y {
					if math.Float64bits(y[i]) != math.Float64bits(withLane[i]) {
						return fmt.Errorf("round %d: y[%d] = %v with a lane, %v without", r, i, withLane[i], y[i])
					}
				}
				sums[r][me] = sum
			}
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("%v: %v", opt.Method, err)
		}
		exact := []float64{1e16 + K - 1, K*(K-1)/2 + 0.25*K, -float64((K - 1) * K * (2*K - 1) / 6)}
		for r := range sums {
			for me, got := range sums[r] {
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(sums[r][0][i]) {
						t.Fatalf("%v round %d: rank %d word %d = %v, rank 0 has %v", opt.Method, r, me, i, got[i], sums[r][0][i])
					}
				}
			}
			for i, want := range exact {
				if got := sums[r][0][i]; math.Abs(got-want) > 4 {
					t.Fatalf("%v round %d: word %d = %v, want %v", opt.Method, r, i, got, want)
				}
			}
		}
	}
}

func TestSessionValidation(t *testing.T) {
	a := testMatrix(t, 100, 700, 20)
	part, _ := partition.Block(a.Rows, 4)
	pat, _ := BuildPattern(a, part)
	w, _ := chanpt.NewWorld(4, 4)
	err := w.Run(func(c runtime.Comm) error {
		if _, err := NewSession(c, a, part, pat, Options{Method: STFW}); err == nil {
			return fmt.Errorf("missing topology accepted")
		}
		if _, err := NewSession(c, a, part, pat, Options{Method: Method(7)}); err == nil {
			return fmt.Errorf("bad method accepted")
		}
		sess, err := NewSession(c, a, part, pat, Options{Method: BL})
		if err != nil {
			return err
		}
		if _, err := sess.Multiply(make([]float64, 3)); err == nil {
			return fmt.Errorf("bad x length accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Partition, pattern and topology must each match the world's size.
	bad := &partition.Partition{K: 8, Part: make([]int32, a.Rows)}
	part2, _ := partition.Block(a.Rows, 2)
	pat2, _ := BuildPattern(a, part2)
	w2, _ := chanpt.NewWorld(4, 4)
	err = w2.Run(func(c runtime.Comm) error {
		if _, err := NewSession(c, a, bad, pat, Options{Method: BL}); err == nil {
			return fmt.Errorf("partition K mismatch accepted")
		}
		if _, err := NewSession(c, a, part, pat2, Options{Method: BL}); err == nil {
			return fmt.Errorf("pattern K mismatch accepted")
		}
		if _, err := NewSession(c, a, part, pat, Options{Method: STFW, Topo: vpt.MustNew(2, 4)}); err == nil {
			return fmt.Errorf("topology size mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSampledTracingWholeExchange pins telemetry's sampling contract on a
// real session: STFW on T3(2,2,2), K=8, with comms wrapped and the session
// instrumented, runs 3*SampleEvery+1 multiplies, each a compiled replay
// from the first. Spans exist only for replay exchanges 0, 16, 32 and 48, the
// same ones on every rank, and each of them carries the complete set: the
// replay's gather, a forward and a deliver span per stage (the deliver
// naming the stage's one neighbour as its last sender), and the session's
// gather/exchange/kernel phases. Counters are exact on every exchange,
// traced or not. It fails if spans are recorded on every exchange or if the
// counters are sampled.
func TestSampledTracingWholeExchange(t *testing.T) {
	const K, replays = 8, 3*telemetry.SampleEvery + 1
	a := testMatrix(t, 400, 3200, 60)
	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	tp := vpt.MustNew(2, 2, 2)
	reg := telemetry.MustNew(telemetry.Config{Ranks: K, Stages: tp.N()})
	w, err := chanpt.NewWorld(K, K)
	if err != nil {
		t.Fatal(err)
	}
	comms := reg.WrapComms(w.Comms(), func(tag int) (int, bool) { return core.TagStage(tag, tp.N()) })
	x := testVector(a.Cols, 7)

	type key struct {
		kind        telemetry.Kind
		stage, peer int32
	}
	traced := make([][]int, K) // per rank: replay exchanges that left spans
	err = runtime.Run(comms, func(c runtime.Comm) error {
		me := c.Rank()
		tel := reg.Rank(me)
		sess, err := NewSession(c, a, part, pat, Options{Method: STFW, Topo: tp, Telemetry: reg})
		if err != nil {
			return err
		}
		// The complete span set of one traced replay multiply.
		want := map[key]int{
			{telemetry.KGather, -1, -1}:   2, // the replay's self gather and the session's gather phase
			{telemetry.KExchange, -1, -1}: 1,
			{telemetry.KKernel, -1, -1}:   1,
		}
		for d := 0; d < tp.N(); d++ {
			nbr := tp.WithDigit(me, d, 1-tp.Digit(me, d))
			want[key{telemetry.KForward, int32(d), -1}] = 1
			want[key{telemetry.KDeliver, int32(d), int32(nbr)}] = 1
		}
		var fwdPerReplay int64
		for i := 0; i < replays; i++ {
			before, fwdBefore := tel.SpanCount(), forwards(tel, tp.N())
			if _, err := sess.Multiply(x); err != nil {
				return fmt.Errorf("replay %d: %w", i, err)
			}
			// Forwards are counted on every replay, traced or not.
			if f := forwards(tel, tp.N()) - fwdBefore; i == 0 {
				fwdPerReplay = f
			} else if f != fwdPerReplay {
				return fmt.Errorf("replay %d: %d forwards counted, replay 0 counted %d", i, f, fwdPerReplay)
			}
			n := tel.SpanCount() - before
			if n == 0 {
				if tel.Sampled() {
					return fmt.Errorf("replay %d: Sampled but no spans", i)
				}
				continue
			}
			traced[me] = append(traced[me], i)
			all := tel.Spans()
			got := map[key]int{}
			for _, sp := range all[len(all)-int(n):] {
				got[key{sp.Kind, sp.Stage, sp.Peer}]++
			}
			if !tel.Sampled() || !maps.Equal(got, want) {
				return fmt.Errorf("replay %d (Sampled %v): spans %v, want %v", i, tel.Sampled(), got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTraced := []int{0, telemetry.SampleEvery, 2 * telemetry.SampleEvery, 3 * telemetry.SampleEvery}
	for r := range traced {
		if !slices.Equal(traced[r], wantTraced) {
			t.Fatalf("rank %d traced replays %v, want %v", r, traced[r], wantTraced)
		}
	}

	snap := reg.Snapshot()
	for _, r := range snap.Ranks {
		if r.Traced != int64(len(wantTraced)) {
			t.Errorf("rank %d: Traced %d, want %d", r.Rank, r.Traced, len(wantTraced))
		}
	}
	// One frame per rank per stage on T3(2,2,2), empty frames included, on
	// every replay.
	frames := int64(K * tp.N() * replays)
	tot := snap.Totals()
	if tot.Sends != frames || tot.Recvs != frames {
		t.Errorf("counted %d sends, %d recvs; want %d each", tot.Sends, tot.Recvs, frames)
	}
	if tot.Forwards == 0 {
		t.Error("no forwards counted: the per-replay forward check ran on zeros")
	}
	// The histograms are sampled with the spans: frame sizes from the four
	// traced replays, stage latencies from their forward and deliver spans.
	if got, want := snap.FrameSizes.Count, int64(K*tp.N()*len(wantTraced)); got != want {
		t.Errorf("frame-size histogram saw %d frames, want %d", got, want)
	}
	if got, want := snap.StageNs.Count, int64(K*2*tp.N()*len(wantTraced)); got != want {
		t.Errorf("stage-latency histogram saw %d spans, want %d", got, want)
	}
}

// forwards sums a rank's forwarded-submessage counters over its stages.
func forwards(t *telemetry.Rank, stages int) int64 {
	var n int64
	for d := 0; d < stages; d++ {
		n += t.Counters(d).Forwards
	}
	return n
}
