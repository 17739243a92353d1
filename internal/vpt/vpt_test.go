package vpt

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() with no dims should fail")
	}
	if _, err := New(4, 1, 4); err == nil {
		t.Error("size-1 dimension should be rejected")
	}
	if _, err := New(0); err == nil {
		t.Error("size-0 dimension should be rejected")
	}
	if _, err := New(-3); err == nil {
		t.Error("negative dimension should be rejected")
	}
	tp, err := New(4, 4, 4)
	if err != nil {
		t.Fatalf("New(4,4,4): %v", err)
	}
	if tp.Size() != 64 || tp.N() != 3 {
		t.Errorf("got Size=%d N=%d, want 64, 3", tp.Size(), tp.N())
	}
}

func TestDirectTopology(t *testing.T) {
	tp, err := Direct(16)
	if err != nil {
		t.Fatal(err)
	}
	if tp.N() != 1 || tp.Size() != 16 {
		t.Fatalf("Direct(16) = %v", tp)
	}
	if tp.NumNeighbors() != 15 {
		t.Errorf("direct topology must have K-1 neighbors, got %d", tp.NumNeighbors())
	}
	// Every other rank is a neighbor of rank 5 in dimension 0.
	nb := tp.Neighbors(nil, 5, 0)
	if len(nb) != 15 {
		t.Fatalf("got %d neighbors", len(nb))
	}
	seen := map[int]bool{}
	for _, q := range nb {
		if q == 5 {
			t.Error("rank is its own neighbor")
		}
		seen[q] = true
	}
	if len(seen) != 15 {
		t.Error("duplicate neighbors")
	}
}

func TestNewBalancedScheme(t *testing.T) {
	cases := []struct {
		K, n int
		want []int
	}{
		{64, 1, []int{64}},
		{64, 2, []int{8, 8}},
		{64, 3, []int{4, 4, 4}},
		{64, 6, []int{2, 2, 2, 2, 2, 2}},
		{128, 2, []int{16, 8}},   // lg=7: 7 mod 2 = 1 -> first dim 2^4
		{128, 3, []int{8, 4, 4}}, // 7 mod 3 = 1
		{512, 2, []int{32, 16}},
		{512, 4, []int{8, 8, 4, 4}}, // 9 mod 4 = 1? lg=9, q=2,r=1 -> [8,4,4,4]
		{32, 5, []int{2, 2, 2, 2, 2}},
		{4096, 12, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
	}
	// fix the 512,4 expectation: lg=9, q=2, r=1 -> dims [8,4,4,4]
	cases[7].want = []int{8, 4, 4, 4}
	for _, c := range cases {
		tp, err := NewBalanced(c.K, c.n)
		if err != nil {
			t.Errorf("NewBalanced(%d,%d): %v", c.K, c.n, err)
			continue
		}
		got := tp.Dims()
		if len(got) != len(c.want) {
			t.Errorf("NewBalanced(%d,%d) dims = %v, want %v", c.K, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("NewBalanced(%d,%d) dims = %v, want %v", c.K, c.n, got, c.want)
				break
			}
		}
	}
}

func TestNewBalancedErrors(t *testing.T) {
	for _, bad := range []struct{ K, n int }{
		{48, 2}, // not a power of two
		{0, 1},  // K too small
		{1, 1},  // K too small
		{64, 0}, // n too small
		{64, 7}, // n > lg K
		{-8, 2}, // negative
		{63, 3}, // not a power of two
	} {
		if _, err := NewBalanced(bad.K, bad.n); err == nil {
			t.Errorf("NewBalanced(%d,%d) should fail", bad.K, bad.n)
		}
	}
}

// The balanced scheme must produce dims whose product is K, all powers of
// two, no two differing by more than a factor of two, and minimal
// sum(k_d - 1) among power-of-two factorizations of fixed length n.
func TestNewBalancedInvariants(t *testing.T) {
	for _, K := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 8192, 16384} {
		for n := 1; n <= MaxDim(K); n++ {
			tp, err := NewBalanced(K, n)
			if err != nil {
				t.Fatalf("NewBalanced(%d,%d): %v", K, n, err)
			}
			prod, minK, maxK := 1, 1<<30, 0
			for _, k := range tp.Dims() {
				prod *= k
				if k < minK {
					minK = k
				}
				if k > maxK {
					maxK = k
				}
				if k&(k-1) != 0 {
					t.Errorf("K=%d n=%d: non-power-of-two dim %d", K, n, k)
				}
			}
			if prod != K {
				t.Errorf("K=%d n=%d: product %d", K, n, prod)
			}
			if maxK > 2*minK {
				t.Errorf("K=%d n=%d: dims %v differ by more than 2x", K, n, tp.Dims())
			}
		}
	}
}

func TestCoordsRankRoundTrip(t *testing.T) {
	tp := MustNew(4, 2, 8, 3)
	for p := 0; p < tp.Size(); p++ {
		if got := tp.Rank(tp.Coords(p)); got != p {
			t.Fatalf("Rank(Coords(%d)) = %d", p, got)
		}
	}
}

func TestDigitStride(t *testing.T) {
	tp := MustNew(4, 4, 4)
	// Paper's Figure 4 example translated to 0-based digits: the process
	// with digits (0,1,1) has rank 0*1 + 1*4 + 1*16 = 20.
	p := tp.Rank([]int{0, 1, 1})
	if p != 20 {
		t.Fatalf("rank = %d", p)
	}
	if tp.Digit(p, 0) != 0 || tp.Digit(p, 1) != 1 || tp.Digit(p, 2) != 1 {
		t.Errorf("digits = %v", tp.Coords(p))
	}
	if tp.Stride(0) != 1 || tp.Stride(1) != 4 || tp.Stride(2) != 16 {
		t.Errorf("strides wrong")
	}
}

func TestWithDigit(t *testing.T) {
	tp := MustNew(4, 4, 4)
	p := tp.Rank([]int{2, 1, 3})
	q := tp.WithDigit(p, 1, 3)
	want := tp.Rank([]int{2, 3, 3})
	if q != want {
		t.Errorf("WithDigit = %d, want %d", q, want)
	}
	if tp.WithDigit(p, 2, 3) != p {
		t.Error("replacing digit with itself must be identity")
	}
}

func TestNeighborsDefinition(t *testing.T) {
	tp := MustNew(4, 4, 4)
	for p := 0; p < tp.Size(); p++ {
		total := 0
		for d := 0; d < tp.N(); d++ {
			nb := tp.Neighbors(nil, p, d)
			if len(nb) != tp.Dim(d)-1 {
				t.Fatalf("p=%d d=%d: %d neighbors, want %d", p, d, len(nb), tp.Dim(d)-1)
			}
			for _, q := range nb {
				if tp.Hamming(p, q) != 1 {
					t.Fatalf("p=%d q=%d: neighbors must differ in exactly one digit", p, q)
				}
				if tp.FirstDiff(p, q) != d {
					t.Fatalf("p=%d q=%d: differ in dim %d, want %d", p, q, tp.FirstDiff(p, q), d)
				}
			}
			total += len(nb)
		}
		if total != tp.NumNeighbors() {
			t.Fatalf("neighbor total mismatch")
		}
	}
}

// TestNeighborsSymmetric: stage d of every store-and-forward program sends
// a frame to each dimension-d neighbour and expects one from each, so the
// relation must be symmetric — q is p's dimension-d neighbour exactly when
// p is q's — or a frame would go unexpected. The list is also in ascending
// rank order, which the routing run's sender lookup relies on.
func TestNeighborsSymmetric(t *testing.T) {
	for _, dims := range [][]int{{8}, {4, 2}, {2, 2, 2}, {4, 3}, {5, 4, 3}, {2, 4, 2, 4}} {
		tp := MustNew(dims...)
		for p := 0; p < tp.Size(); p++ {
			for d := 0; d < tp.N(); d++ {
				nb := tp.Neighbors(nil, p, d)
				if !sort.IntsAreSorted(nb) {
					t.Fatalf("%v p=%d d=%d: neighbours %v not ascending", dims, p, d, nb)
				}
				for _, q := range nb {
					if !slices.Contains(tp.Neighbors(nil, q, d), p) {
						t.Fatalf("%v: %d is a dimension-%d neighbour of %d, not the other way round", dims, q, d, p)
					}
				}
			}
		}
	}
}

func TestHammingSymmetricTriangle(t *testing.T) {
	tp := MustNew(2, 4, 2, 4)
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 200; it++ {
		a, b, c := rng.Intn(tp.Size()), rng.Intn(tp.Size()), rng.Intn(tp.Size())
		if tp.Hamming(a, b) != tp.Hamming(b, a) {
			t.Fatal("Hamming not symmetric")
		}
		if tp.Hamming(a, a) != 0 {
			t.Fatal("Hamming(a,a) != 0")
		}
		if tp.Hamming(a, c) > tp.Hamming(a, b)+tp.Hamming(b, c) {
			t.Fatal("Hamming violates triangle inequality")
		}
	}
}

func TestPathDimensionOrdered(t *testing.T) {
	tp := MustNew(4, 4, 4)
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 500; it++ {
		src, dst := rng.Intn(64), rng.Intn(64)
		path := tp.Path(nil, src, dst)
		if len(path) != tp.Hamming(src, dst) {
			t.Fatalf("path length %d != Hamming %d", len(path), tp.Hamming(src, dst))
		}
		cur, fixed := src, 0
		for _, hop := range path {
			d := tp.FirstDiff(cur, hop)
			if d < fixed {
				t.Fatal("path not dimension-ordered")
			}
			if tp.Hamming(hop, dst) != tp.Hamming(cur, dst)-1 {
				t.Fatal("hop does not make progress")
			}
			fixed = d
			cur = hop
		}
		if len(path) > 0 && path[len(path)-1] != dst {
			t.Fatal("path does not end at destination")
		}
		if src == dst && len(path) != 0 {
			t.Fatal("self path must be empty")
		}
	}
}

func TestFirstNextDiff(t *testing.T) {
	tp := MustNew(2, 2, 2, 2)
	a := tp.Rank([]int{0, 0, 0, 0})
	b := tp.Rank([]int{0, 1, 0, 1})
	if d := tp.FirstDiff(a, b); d != 1 {
		t.Errorf("FirstDiff = %d, want 1", d)
	}
	if d := tp.NextDiff(a, b, 1); d != 3 {
		t.Errorf("NextDiff = %d, want 3", d)
	}
	if d := tp.NextDiff(a, b, 3); d != -1 {
		t.Errorf("NextDiff past last = %d, want -1", d)
	}
	if d := tp.FirstDiff(a, a); d != -1 {
		t.Errorf("FirstDiff(a,a) = %d, want -1", d)
	}
}

func TestGroupOf(t *testing.T) {
	tp := MustNew(4, 4, 4)
	p := tp.Rank([]int{2, 1, 3})
	g := tp.GroupOf(p, 1)
	if len(g) != 4 {
		t.Fatalf("group size %d", len(g))
	}
	found := false
	for _, q := range g {
		if q == p {
			found = true
		}
		if tp.Digit(q, 0) != 2 || tp.Digit(q, 2) != 3 {
			t.Error("group member changes other digits")
		}
	}
	if !found {
		t.Error("group must contain the process itself")
	}
}

func TestString(t *testing.T) {
	if s := MustNew(4, 4, 4).String(); s != "T3(4,4,4)" {
		t.Errorf("String = %q", s)
	}
	if s := MustNew(64).String(); s != "T1(64)" {
		t.Errorf("String = %q", s)
	}
}

func TestEqual(t *testing.T) {
	a := MustNew(4, 8)
	b := MustNew(4, 8)
	c := MustNew(8, 4)
	d := MustNew(32)
	if !a.Equal(b) {
		t.Error("identical topologies must be Equal")
	}
	if a.Equal(c) {
		t.Error("order of dims matters")
	}
	if a.Equal(d) {
		t.Error("different n must not be Equal")
	}
}

func TestMaxDim(t *testing.T) {
	for _, c := range []struct{ k, want int }{{1, 0}, {2, 1}, {4, 2}, {1024, 10}, {16384, 14}} {
		if got := MaxDim(c.k); got != c.want {
			t.Errorf("MaxDim(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

// Property: for random valid digit vectors, Rank/Coords round-trip and
// RouteNext fixes exactly digit d.
func TestQuickRouteNextFixesDigit(t *testing.T) {
	tp := MustNew(4, 2, 8)
	f := func(a, b uint16, dRaw uint8) bool {
		src := int(a) % tp.Size()
		dst := int(b) % tp.Size()
		d := int(dRaw) % tp.N()
		next := tp.RouteNext(src, dst, d)
		if tp.Digit(next, d) != tp.Digit(dst, d) {
			return false
		}
		for c := 0; c < tp.N(); c++ {
			if c != d && tp.Digit(next, c) != tp.Digit(src, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Hamming distance equals the number of stages a message is
// forwarded in, which equals len(Path).
func TestQuickHammingEqualsPathLen(t *testing.T) {
	tp := MustNew(2, 4, 4, 2)
	f := func(a, b uint16) bool {
		src := int(a) % tp.Size()
		dst := int(b) % tp.Size()
		return len(tp.Path(nil, src, dst)) == tp.Hamming(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCoords(b *testing.B) {
	tp := MustNew(8, 8, 8, 8)
	for i := 0; i < b.N; i++ {
		_ = tp.Coords(i % tp.Size())
	}
}

func BenchmarkPath(b *testing.B) {
	tp := MustNew(8, 8, 8, 8)
	buf := make([]int, 0, 4)
	for i := 0; i < b.N; i++ {
		buf = tp.Path(buf[:0], i%tp.Size(), (i*2654435761)%tp.Size())
	}
}
