package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stfw/internal/vpt"
)

func TestSendSetsNormalize(t *testing.T) {
	s := NewSendSets(8)
	s.Add(0, 3, 5)
	s.Add(0, 3, 2) // duplicate, accumulates
	s.Add(0, 1, 4)
	s.Add(0, 0, 9) // self-send dropped
	s.Add(2, 7, 0) // zero kept: the runtime routes it
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(s.Sets[0]) != 2 || s.Sets[0][0] != (Pair{1, 4}) || s.Sets[0][1] != (Pair{3, 7}) {
		t.Errorf("Sets[0] = %+v", s.Sets[0])
	}
	if len(s.Sets[2]) != 1 || s.Sets[2][0] != (Pair{7, 0}) {
		t.Errorf("Sets[2] = %+v", s.Sets[2])
	}
	if s.TotalWords() != 11 || s.TotalMessages() != 3 {
		t.Errorf("totals = %d words, %d msgs", s.TotalWords(), s.TotalMessages())
	}
}

func TestSendSetsNormalizeErrors(t *testing.T) {
	s := NewSendSets(4)
	s.Add(0, 4, 1)
	if err := s.Normalize(); err == nil {
		t.Error("out-of-range destination accepted")
	}
	s2 := NewSendSets(4)
	s2.Add(0, 1, -3)
	if err := s2.Normalize(); err == nil {
		t.Error("negative volume accepted")
	}
}

func TestRecvSetsTranspose(t *testing.T) {
	s := NewSendSets(4)
	s.Add(0, 1, 10)
	s.Add(0, 2, 20)
	s.Add(3, 1, 30)
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	recv := s.RecvSets()
	if len(recv[1]) != 2 || recv[1][0] != (Pair{0, 10}) || recv[1][1] != (Pair{3, 30}) {
		t.Errorf("recv[1] = %+v", recv[1])
	}
	if len(recv[2]) != 1 || recv[2][0] != (Pair{0, 20}) {
		t.Errorf("recv[2] = %+v", recv[2])
	}
	if len(recv[0]) != 0 || len(recv[3]) != 0 {
		t.Errorf("recv = %+v", recv)
	}
}

func TestCompleteSendSets(t *testing.T) {
	s := Complete(8, 3)
	if s.TotalMessages() != 8*7 {
		t.Errorf("messages = %d", s.TotalMessages())
	}
	if s.TotalWords() != 8*7*3 {
		t.Errorf("words = %d", s.TotalWords())
	}
}

// randomSendSets builds sparse irregular send sets: a few heavy senders plus
// light background traffic, like the paper's latency-bound instances.
func randomSendSets(rng *rand.Rand, K, heavy, lightDeg int, words int64) *SendSets {
	s := NewSendSets(K)
	for h := 0; h < heavy; h++ {
		src := rng.Intn(K)
		for dst := 0; dst < K; dst++ {
			if dst != src && rng.Intn(4) != 0 {
				s.Add(src, dst, 1+rng.Int63n(words))
			}
		}
	}
	for src := 0; src < K; src++ {
		for l := 0; l < lightDeg; l++ {
			dst := rng.Intn(K)
			if dst != src {
				s.Add(src, dst, 1+rng.Int63n(words))
			}
		}
	}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

func TestDirectPlanEqualsT1Plan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := randomSendSets(rng, 16, 2, 3, 8)
	direct, err := BuildDirectPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := BuildPlan(vpt.MustNew(16), s)
	if err != nil {
		t.Fatal(err)
	}
	if direct.TotalMsgs != t1.TotalMsgs || direct.TotalWords != t1.TotalWords {
		t.Fatalf("direct (%d msgs, %d words) != T1 plan (%d msgs, %d words)",
			direct.TotalMsgs, direct.TotalWords, t1.TotalMsgs, t1.TotalWords)
	}
	for p := 0; p < 16; p++ {
		if direct.SentMsgs[p] != t1.SentMsgs[p] || direct.SentWords[p] != t1.SentWords[p] {
			t.Errorf("rank %d: direct %d/%d vs T1 %d/%d", p,
				direct.SentMsgs[p], direct.SentWords[p], t1.SentMsgs[p], t1.SentWords[p])
		}
	}
	if len(direct.Stages) != 1 || len(t1.Stages) != 1 {
		t.Error("both plans must have exactly one stage")
	}
}

func TestPlanDeliversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][]int{{16}, {4, 4}, {2, 2, 2, 2}, {8, 2}, {2, 8}} {
		tp := vpt.MustNew(dims...)
		s := randomSendSets(rng, tp.Size(), 1, 2, 5)
		p, err := BuildPlan(tp, s)
		if err != nil {
			t.Fatal(err)
		}
		if p.DeliveredWords != s.TotalWords() {
			t.Errorf("%v: delivered %d, want %d", dims, p.DeliveredWords, s.TotalWords())
		}
		// Conservation: what is sent in total equals what is received.
		var sentW, recvW int64
		var sentM, recvM int
		for q := 0; q < tp.Size(); q++ {
			sentW += p.SentWords[q]
			recvW += p.RecvWords[q]
			sentM += p.SentMsgs[q]
			recvM += p.RecvMsgs[q]
		}
		if sentW != recvW || sentW != p.TotalWords {
			t.Errorf("%v: volume not conserved: sent %d recv %d total %d", dims, sentW, recvW, p.TotalWords)
		}
		if sentM != recvM || sentM != p.TotalMsgs {
			t.Errorf("%v: message counts not conserved", dims)
		}
	}
}

func TestPlanRespectsNeighborhood(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tp := vpt.MustNew(4, 2, 4)
	s := randomSendSets(rng, tp.Size(), 2, 3, 6)
	p, err := BuildPlan(tp, s)
	if err != nil {
		t.Fatal(err)
	}
	for d, stage := range p.Stages {
		for _, f := range stage {
			if tp.FirstDiff(f.From, f.To) != d || tp.Hamming(f.From, f.To) != 1 {
				t.Fatalf("stage %d frame %d->%d is not a dimension-%d neighbor pair", d, f.From, f.To, d)
			}
			if f.Words <= 0 || f.Subs <= 0 {
				t.Fatalf("stage %d has an empty frame %+v", d, f)
			}
		}
	}
}

func TestPlanMessageCountBound(t *testing.T) {
	// Worst case: complete exchange. Message counts must reach exactly the
	// bound sum(k_d - 1) at every process.
	for _, dims := range [][]int{{4, 4}, {2, 2, 2, 2}, {8, 2}} {
		tp := vpt.MustNew(dims...)
		s := Complete(tp.Size(), 1)
		p, err := BuildPlan(tp, s)
		if err != nil {
			t.Fatal(err)
		}
		bound := MaxMessageBound(tp)
		for q := 0; q < tp.Size(); q++ {
			if p.SentMsgs[q] != bound {
				t.Errorf("%v rank %d: sent %d msgs, bound %d", dims, q, p.SentMsgs[q], bound)
			}
		}
	}
}

func TestPlanVolumeMatchesClosedForm(t *testing.T) {
	// Section 4: total forwarded volume for the complete exchange on a
	// uniform k^n topology is K * s * sum_l (k-1)^l C(n,l) l.
	for _, c := range []struct{ k, n int }{{4, 2}, {2, 4}, {4, 3}, {8, 2}, {16, 1}} {
		dims := make([]int, c.n)
		for i := range dims {
			dims[i] = c.k
		}
		tp := vpt.MustNew(dims...)
		const s = 3
		plan, err := BuildPlan(tp, Complete(tp.Size(), s))
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tp.Size()) * ExactForwardVolume(c.k, c.n, s)
		if got := float64(plan.TotalWords); math.Abs(got-want) > 0.5 {
			t.Errorf("k=%d n=%d: routed volume %v, closed form %v", c.k, c.n, got, want)
		}
	}
}

func TestPlanBufferBound(t *testing.T) {
	// Section 4: at most s*(K-1) words resident at any process.
	for _, c := range []struct{ k, n int }{{4, 2}, {2, 4}, {4, 3}} {
		dims := make([]int, c.n)
		for i := range dims {
			dims[i] = c.k
		}
		tp := vpt.MustNew(dims...)
		const s = 2
		plan, err := BuildPlan(tp, Complete(tp.Size(), s))
		if err != nil {
			t.Fatal(err)
		}
		bound := BufferBound(tp.Size(), s)
		for q := 0; q < tp.Size(); q++ {
			if plan.MaxBufferWords[q] > bound {
				t.Errorf("k=%d n=%d rank %d: buffer %d exceeds bound %d",
					c.k, c.n, q, plan.MaxBufferWords[q], bound)
			}
		}
		// The bound is tight for the complete exchange.
		if plan.MaxBufferWords[0] != bound {
			t.Errorf("k=%d n=%d: buffer %d, expected tight bound %d",
				c.k, c.n, plan.MaxBufferWords[0], bound)
		}
	}
}

func TestPlanVolumeMonotoneInDimension(t *testing.T) {
	// Increasing VPT dimension (for fixed K) must not decrease volume and
	// must not increase the message bound.
	rng := rand.New(rand.NewSource(3))
	K := 64
	s := randomSendSets(rng, K, 3, 4, 10)
	var prevVol int64 = -1
	prevBound := 1 << 30
	for n := 1; n <= vpt.MaxDim(K); n++ {
		tp, err := vpt.NewBalanced(K, n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildPlan(tp, s)
		if err != nil {
			t.Fatal(err)
		}
		if p.TotalWords < prevVol {
			t.Errorf("n=%d: volume decreased from %d to %d", n, prevVol, p.TotalWords)
		}
		if b := MaxMessageBound(tp); b > prevBound {
			t.Errorf("n=%d: message bound increased from %d to %d", n, prevBound, b)
		} else {
			prevBound = b
		}
		prevVol = p.TotalWords
	}
}

func TestPlanTopologySizeMismatch(t *testing.T) {
	s := NewSendSets(8)
	if _, err := BuildPlan(vpt.MustNew(4, 4), s); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestPlanEmptySendSets(t *testing.T) {
	tp := vpt.MustNew(4, 4)
	p, err := BuildPlan(tp, NewSendSets(16))
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalMsgs != 0 || p.TotalWords != 0 {
		t.Errorf("empty send sets produced traffic: %+v", p)
	}
}

func TestAnalysisClosedForms(t *testing.T) {
	// Values from Section 4 for K = 256: blowup ratios 3.01 (T4), 4.02
	// (T8), 1.88 (T2) vs loose bounds 4, 8, 2.
	for _, c := range []struct {
		k, n  int
		want  float64
		loose float64
	}{
		{4, 4, 3.01, 4},
		{2, 8, 4.02, 8},
		{16, 2, 1.88, 2},
	} {
		got := VolumeBlowup(c.k, c.n)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("VolumeBlowup(%d,%d) = %.3f, paper says %.2f", c.k, c.n, got, c.want)
		}
		loose := LooseForwardVolume(c.k, c.n, 1) / DirectVolume(256, 1)
		if math.Abs(loose-c.loose) > 1e-9 {
			t.Errorf("loose ratio = %v, want %v", loose, c.loose)
		}
	}
}

func TestBinomial(t *testing.T) {
	for _, c := range []struct {
		n, k int
		want float64
	}{
		{4, 2, 6}, {8, 0, 1}, {8, 8, 1}, {8, 3, 56}, {5, 6, 0}, {5, -1, 0},
	} {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestExpectedForwards(t *testing.T) {
	// For the hypercube T_lgK(2,...,2) with K=4: destinations at distance
	// 1,1,2 -> mean 4/3.
	if got, want := ExpectedForwards(2, 2), 4.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpectedForwards(2,2) = %v, want %v", got, want)
	}
	// Direct topology: every destination is one hop.
	if got := ExpectedForwards(16, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("ExpectedForwards(16,1) = %v, want 1", got)
	}
}

func TestTopologyVolumeBlowupMatchesUniform(t *testing.T) {
	for _, c := range []struct{ k, n int }{{4, 2}, {2, 4}, {4, 4}} {
		dims := make([]int, c.n)
		for i := range dims {
			dims[i] = c.k
		}
		tp := vpt.MustNew(dims...)
		a := TopologyVolumeBlowup(tp)
		b := VolumeBlowup(c.k, c.n)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("k=%d n=%d: TopologyVolumeBlowup %v != VolumeBlowup %v", c.k, c.n, a, b)
		}
	}
}

func TestMaxMessageBoundValues(t *testing.T) {
	if got := MaxMessageBound(vpt.MustNew(64)); got != 63 {
		t.Errorf("T1(64) bound = %d", got)
	}
	if got := MaxMessageBound(vpt.MustNew(8, 8)); got != 14 {
		t.Errorf("T2(8,8) bound = %d", got)
	}
	if got := MaxMessageBound(vpt.MustNew(2, 2, 2, 2, 2, 2)); got != 6 {
		t.Errorf("T6 bound = %d", got)
	}
	tp := vpt.MustNew(4, 2, 4)
	if got := StageMessageBound(tp, 1); got != 1 {
		t.Errorf("stage bound = %d", got)
	}
}

func BenchmarkBuildPlanComplete256T4(b *testing.B) {
	tp, _ := vpt.NewBalanced(256, 4)
	s := Complete(256, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPlan(tp, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildPlanSparse4096T6(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randomSendSets(rng, 4096, 4, 8, 16)
	tp, _ := vpt.NewBalanced(4096, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPlan(tp, s); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: for random small topologies and send sets, the plan conserves
// volume (sent = received = routed), respects the per-process bound, and
// its total volume equals the Hamming-weighted send sets.
func TestQuickPlanConservation(t *testing.T) {
	f := func(seed int64, dimSel uint8) bool {
		dimChoices := [][]int{{8}, {2, 4}, {4, 2}, {2, 2, 2}, {3, 3}, {2, 3}}
		dims := dimChoices[int(dimSel)%len(dimChoices)]
		tp := vpt.MustNew(dims...)
		K := tp.Size()
		rng := rand.New(rand.NewSource(seed))
		s := NewSendSets(K)
		for i := 0; i < K; i++ {
			for j := 0; j < 2; j++ {
				dst := rng.Intn(K)
				if dst != i {
					s.Add(i, dst, int64(1+rng.Intn(5)))
				}
			}
		}
		if err := s.Normalize(); err != nil {
			return false
		}
		p, err := BuildPlan(tp, s)
		if err != nil {
			return false
		}
		var sent, recv, hamming int64
		for q := 0; q < K; q++ {
			sent += p.SentWords[q]
			recv += p.RecvWords[q]
			if p.SentMsgs[q] > MaxMessageBound(tp) {
				return false
			}
		}
		for src, set := range s.Sets {
			for _, pr := range set {
				hamming += pr.Words * int64(tp.Hamming(src, pr.Dst))
			}
		}
		return sent == recv && sent == p.TotalWords && p.TotalWords == hamming &&
			p.DeliveredWords == s.TotalWords()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestZeroWordPairIsRouted: a pair of zero words is a message. The runtime
// sends its empty submessage along the pair's whole route, so Normalize
// keeps the pair and the plans route it: a K=8 T3(2,2,2) world learned
// with 0->7 (0 bytes) and 1->6 (16 bytes) passes VerifyLearnedWorld against
// the plan of the same pattern, that plan holds a frame for each of the
// three hops of 0->7's route, and the direct plan counts 0->7 as one of
// its two messages.
func TestZeroWordPairIsRouted(t *testing.T) {
	tp := vpt.MustNew(2, 2, 2)
	pairs := map[synthPair]int{{0, 7}: 0, {1, 6}: 16}
	s := NewSendSets(tp.Size())
	for pr, size := range pairs {
		s.Add(pr.src, pr.dst, int64(size/8))
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.TotalMessages() != 2 {
		t.Fatalf("Normalize kept %d pairs, want 2", s.TotalMessages())
	}
	plan, err := BuildPlan(tp, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLearnedWorld(learnPairs(t, tp, pairs), plan); err != nil {
		t.Fatalf("learned world does not match its plan: %v", err)
	}
	hops := 0
	for d, cur := 0, 0; d < tp.N(); d++ {
		next := tp.RouteNext(cur, 7, d)
		if next == cur {
			continue
		}
		if !slices.ContainsFunc(plan.Stages[d], func(f Frame) bool { return f.From == cur && f.To == next && f.Subs > 0 }) {
			t.Errorf("plan stage %d has no frame %d->%d for the 0->7 route: %+v", d, cur, next, plan.Stages[d])
		}
		hops++
		cur = next
	}
	if hops != 3 {
		t.Fatalf("0->7 routes in %d hops on T3(2,2,2), want 3", hops)
	}
	direct, err := BuildDirectPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	if direct.TotalMsgs != 2 || direct.TotalWords != 2 {
		t.Errorf("direct plan: %d messages of %d words, want 2 of 2", direct.TotalMsgs, direct.TotalWords)
	}
}
