package spmv

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

func testMatrix(t testing.TB, rows, nnz, maxDeg int) *sparse.CSR {
	t.Helper()
	m, err := sparse.Generate(sparse.GenParams{
		Name: "spmvtest", Rows: rows, TargetNNZ: nnz, MaxDegree: maxDeg,
		HubRows: 2, Band: 4, TailFrac: 0.3, TailSkew: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestBuildPatternSmall(t *testing.T) {
	// 4x4 matrix, rows {0,1} on part 0, {2,3} on part 1.
	// Column 0 touched by rows 0 and 2 -> part 0 sends x[0] to part 1.
	// Column 3 touched by rows 1 and 3 -> part 1 sends x[3] to part 0.
	ts := []sparse.Triple{
		{Row: 0, Col: 0, Val: 1}, {Row: 2, Col: 0, Val: 1},
		{Row: 1, Col: 3, Val: 1}, {Row: 3, Col: 3, Val: 1},
		{Row: 1, Col: 1, Val: 1},
	}
	a, err := sparse.FromTriples(4, 4, ts)
	if err != nil {
		t.Fatal(err)
	}
	part := &partition.Partition{K: 2, Part: []int32{0, 0, 1, 1}}
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	if got := pat.SendIdx[0][1]; len(got) != 1 || got[0] != 0 {
		t.Errorf("part 0 -> 1: %v", got)
	}
	if got := pat.SendIdx[1][0]; len(got) != 1 || got[0] != 3 {
		t.Errorf("part 1 -> 0: %v", got)
	}
	if got := pat.RecvIdx[1][0]; len(got) != 1 || got[0] != 0 {
		t.Errorf("recv 1 <- 0: %v", got)
	}
	if pat.NNZ[0] != 3 || pat.NNZ[1] != 2 {
		t.Errorf("nnz = %v", pat.NNZ)
	}
}

func TestBuildPatternNoSelfMessages(t *testing.T) {
	a := testMatrix(t, 400, 3000, 60)
	part, _ := partition.Block(a.Rows, 8)
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 8; src++ {
		if _, ok := pat.SendIdx[src][src]; ok {
			t.Errorf("part %d sends to itself", src)
		}
		for dst, lst := range pat.SendIdx[src] {
			if len(lst) == 0 {
				t.Errorf("empty send list %d->%d", src, dst)
			}
			// Sender must own every index it sends.
			for _, j := range lst {
				if int(part.Part[j]) != src {
					t.Errorf("part %d sends unowned x[%d]", src, j)
				}
			}
		}
	}
}

func TestBuildPatternErrors(t *testing.T) {
	rect, _ := sparse.FromTriples(2, 3, []sparse.Triple{{Row: 0, Col: 0, Val: 1}})
	part := &partition.Partition{K: 1, Part: []int32{0, 0}}
	if _, err := BuildPattern(rect, part); err == nil {
		t.Error("rectangular matrix accepted")
	}
	sq, _ := sparse.FromTriples(3, 3, []sparse.Triple{{Row: 0, Col: 0, Val: 1}})
	bad := &partition.Partition{K: 2, Part: []int32{0, 5, 0}}
	if _, err := BuildPattern(sq, bad); err == nil {
		t.Error("invalid partition accepted")
	}
}

func TestSendSetsSizes(t *testing.T) {
	a := testMatrix(t, 300, 2500, 50)
	part, _ := partition.Block(a.Rows, 4)
	pat, _ := BuildPattern(a, part)
	s, err := pat.SendSets()
	if err != nil {
		t.Fatal(err)
	}
	// Total words must equal total indices across all send lists.
	var want int64
	for src := 0; src < 4; src++ {
		for _, lst := range pat.SendIdx[src] {
			want += int64(len(lst))
		}
	}
	if s.TotalWords() != want {
		t.Errorf("send set words %d, want %d", s.TotalWords(), want)
	}
}

// runParallel executes a full distributed SpMV on a channel world and
// reduces the result.
func runParallel(t *testing.T, a *sparse.CSR, part *partition.Partition, x []float64, opt Options) []float64 {
	t.Helper()
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	w, err := chanpt.NewWorld(part.K, part.K)
	if err != nil {
		t.Fatal(err)
	}
	ys := make([][]float64, part.K)
	err = w.Run(func(c runtime.Comm) error {
		sess, err := NewSession(c, a, part, pat, opt)
		if err != nil {
			return err
		}
		ys[c.Rank()], err = sess.Multiply(x)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	y, err := Reduce(part, ys)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func assertVecEqual(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestParallelMatchesSerialBL(t *testing.T) {
	a := testMatrix(t, 500, 4000, 80)
	x := testVector(a.Cols, 1)
	want, _ := a.MulVec(nil, x)
	for _, K := range []int{2, 5, 16} {
		part, err := partition.Greedy(a, K, partition.DefaultGreedy())
		if err != nil {
			t.Fatal(err)
		}
		got := runParallel(t, a, part, x, Options{Method: BL})
		assertVecEqual(t, got, want)
	}
}

func TestParallelMatchesSerialSTFW(t *testing.T) {
	a := testMatrix(t, 500, 4000, 80)
	x := testVector(a.Cols, 2)
	want, _ := a.MulVec(nil, x)
	for _, c := range []struct{ K, n int }{{16, 2}, {16, 4}, {32, 5}, {64, 3}} {
		tp, err := vpt.NewBalanced(c.K, c.n)
		if err != nil {
			t.Fatal(err)
		}
		part, err := partition.Greedy(a, c.K, partition.DefaultGreedy())
		if err != nil {
			t.Fatal(err)
		}
		got := runParallel(t, a, part, x, Options{Method: STFW, Topo: tp})
		assertVecEqual(t, got, want)
	}
}

func TestParallelBlockAndRandomPartitions(t *testing.T) {
	a := testMatrix(t, 300, 2000, 40)
	x := testVector(a.Cols, 3)
	want, _ := a.MulVec(nil, x)
	bp, _ := partition.Block(a.Rows, 8)
	rp, _ := partition.Random(a.Rows, 8, 9)
	tp, _ := vpt.NewBalanced(8, 3)
	for _, part := range []*partition.Partition{bp, rp} {
		assertVecEqual(t, runParallel(t, a, part, x, Options{Method: BL}), want)
		assertVecEqual(t, runParallel(t, a, part, x, Options{Method: STFW, Topo: tp}), want)
	}
}

// TestRunValidation: a one-shot multiply (NewSession, then Multiply)
// rejects a wrong x length, STFW without a topology and an unknown method.
func TestRunValidation(t *testing.T) {
	a := testMatrix(t, 100, 600, 20)
	part, _ := partition.Block(a.Rows, 4)
	pat, _ := BuildPattern(a, part)
	w, _ := chanpt.NewWorld(4, 4)
	err := w.Run(func(c runtime.Comm) error {
		// Wrong x length.
		sess, err := NewSession(c, a, part, pat, Options{Method: BL})
		if err != nil {
			return err
		}
		if _, err := sess.Multiply(make([]float64, 5)); err == nil {
			return fmt.Errorf("bad x accepted")
		}
		// STFW without topology.
		if _, err := NewSession(c, a, part, pat, Options{Method: STFW}); err == nil {
			return fmt.Errorf("missing topology accepted")
		}
		// Unknown method.
		if _, err := NewSession(c, a, part, pat, Options{Method: Method(9)}); err == nil {
			return fmt.Errorf("unknown method accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMethodString(t *testing.T) {
	if BL.String() != "BL" || STFW.String() != "STFW" {
		t.Error("method names wrong")
	}
	if Method(7).String() != "Method(7)" {
		t.Error("unknown method name wrong")
	}
}

func TestReduceValidation(t *testing.T) {
	part := &partition.Partition{K: 2, Part: []int32{0, 1}}
	if _, err := Reduce(part, make([][]float64, 1)); err == nil {
		t.Error("wrong ys length accepted")
	}
}

// TestBuildPatternMatchesBruteForce holds BuildPattern's single row walk
// against the definition — x[j] travels from part[j] to every other part
// with a nonzero in column j — kept as a map of sets, over catalog analogs
// under three partitioners, K=1 and K > rows. Each list must be sorted,
// unique and equal to the reference, RecvIdx must mirror SendIdx without
// sharing its memory, and the parts' nonzero counts must add up to A's.
func TestBuildPatternMatchesBruteForce(t *testing.T) {
	type instance struct {
		name  string
		scale int
		ks    []int
	}
	table := []instance{{"gupta2", 8, []int{1, 7, 64}}, {"sparsine", 16, []int{64}}, {"GaAsH6", 8, []int{32}}}
	if !raceEnabled && !testing.Short() {
		table = append(table, instance{"coAuthorsDBLP", 1, []int{8}})
	}
	for _, in := range table {
		a, err := sparse.CatalogMatrix(in.name, in.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, K := range in.ks {
			greedy, err := partition.Greedy(a, K, partition.DefaultGreedy())
			if err != nil {
				t.Fatal(err)
			}
			random, _ := partition.Random(a.Rows, K, 5)
			block, _ := partition.Block(a.Rows, K)
			for pname, part := range map[string]*partition.Partition{"greedy": greedy, "random": random, "block": block} {
				checkPatternBruteForce(t, fmt.Sprintf("%s/%d K=%d %s", in.name, in.scale, K, pname), a, part)
			}
		}
	}
	small := testMatrix(t, 100, 500, 30)
	part, _ := partition.Block(small.Rows, 128)
	checkPatternBruteForce(t, "K > rows", small, part)
}

func checkPatternBruteForce(t *testing.T, name string, a *sparse.CSR, part *partition.Partition) {
	t.Helper()
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]map[int32]bool{} // (owner, part) -> columns
	for i := 0; i < a.Rows; i++ {
		q := int(part.Part[i])
		cols, _ := a.Row(i)
		for _, j := range cols {
			owner := int(part.Part[j])
			if owner == q {
				continue
			}
			if want[[2]int{owner, q}] == nil {
				want[[2]int{owner, q}] = map[int32]bool{}
			}
			want[[2]int{owner, q}][j] = true
		}
	}
	var links int
	var nnz int64
	for src := 0; src < part.K; src++ {
		nnz += pat.NNZ[src]
		links += len(pat.SendIdx[src])
		for dst, lst := range pat.SendIdx[src] {
			ref := want[[2]int{src, dst}]
			if len(lst) != len(ref) {
				t.Fatalf("%s: %d -> %d sends %d entries, want %d", name, src, dst, len(lst), len(ref))
			}
			for k, j := range lst {
				if !ref[j] || (k > 0 && lst[k-1] >= j) {
					t.Fatalf("%s: %d -> %d list is not the sorted unique reference: %v", name, src, dst, lst)
				}
			}
			recv := pat.RecvIdx[dst][src]
			if !slices.Equal(recv, lst) {
				t.Fatalf("%s: RecvIdx[%d][%d] does not mirror SendIdx[%d][%d]", name, dst, src, src, dst)
			}
			lst[0]++
			aliased := recv[0] == lst[0]
			lst[0]--
			if aliased {
				t.Fatalf("%s: RecvIdx[%d][%d] shares memory with SendIdx[%d][%d]", name, dst, src, src, dst)
			}
		}
	}
	var recvLinks int
	for dst := 0; dst < part.K; dst++ {
		recvLinks += len(pat.RecvIdx[dst])
	}
	if links != len(want) || recvLinks != len(want) {
		t.Fatalf("%s: %d send and %d receive links, want %d", name, links, recvLinks, len(want))
	}
	if nnz != int64(a.NNZ()) {
		t.Fatalf("%s: parts hold %d nonzeros, A has %d", name, nnz, a.NNZ())
	}
}

func TestPatternMorePartsThanRows(t *testing.T) {
	// K larger than rows: legal; most parts idle.
	a := testMatrix(t, 100, 500, 30)
	part, _ := partition.Block(a.Rows, 128)
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pat.SendSets()
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalWords() == 0 {
		t.Error("expected some communication")
	}
}

func BenchmarkBuildPattern(b *testing.B) {
	a := testMatrix(b, 20000, 200000, 800)
	part, _ := partition.Greedy(a, 256, partition.DefaultGreedy())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPattern(a, part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelSpMV64STFW(b *testing.B) {
	a := testMatrix(b, 2000, 16000, 300)
	part, _ := partition.Greedy(a, 64, partition.DefaultGreedy())
	pat, _ := BuildPattern(a, part)
	tp, _ := vpt.NewBalanced(64, 3)
	x := testVector(a.Cols, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := chanpt.NewWorld(64, 4)
		err := w.Run(func(c runtime.Comm) error {
			sess, err := NewSession(c, a, part, pat, Options{Method: STFW, Topo: tp})
			if err != nil {
				return err
			}
			_, err = sess.Multiply(x)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
