package spmv

import (
	"fmt"
	"math"
	"testing"

	"stfw/internal/partition"
	"stfw/internal/runtime"
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
