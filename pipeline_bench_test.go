package stfw

// Benchmarks for one-shot exchanges: a seeded workload run through the
// store-and-forward Exchange across world sizes and skew patterns, and
// through the baseline BL compiled and run once (core.NewDirectReplay) —
// run with `go test -bench 'Exchange' -benchmem`.

import (
	"math/rand"
	"testing"

	"stfw/internal/core"
	"stfw/internal/runtime"
)

// powerLawSends builds a power-law skewed pattern: rank popularity and send
// degree both follow a Zipf-like distribution, the shape of the irregular
// applications (graphs, sparse matrices) the paper targets.
func powerLawSends(K int, words int64) *SendSets {
	rng := rand.New(rand.NewSource(int64(K)))
	zipf := rand.NewZipf(rng, 1.4, 1.5, uint64(K-1))
	s := NewSendSets(K)
	for src := 0; src < K; src++ {
		deg := int(zipf.Uint64()) + 1
		for j := 0; j < deg; j++ {
			// Bias destinations toward low ranks (popular endpoints).
			dst := int(zipf.Uint64())
			if dst != src {
				s.Add(src, dst, 1+int64(j)%words)
			}
		}
	}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

// scaleWords multiplies every pair's word count, turning the seeded
// communication patterns into workloads with realistic per-pair volume: the
// paper's irregular applications move kilobytes per communicating pair, not
// the few words the pattern builders default to. The skew structure (who
// talks to whom) is unchanged.
func scaleWords(s *SendSets, f int64) *SendSets {
	out := NewSendSets(s.K)
	for src := range s.Sets {
		for _, pr := range s.Sets[src] {
			out.Add(src, pr.Dst, pr.Words*f)
		}
	}
	if err := out.Normalize(); err != nil {
		panic(err)
	}
	return out
}

// benchWordScale brings the 8-word pattern builders to 1024 words (8 KiB)
// per heavy pair.
const benchWordScale = 128

// benchDim picks the topology dimension the paper's evaluation favors at
// each world size (balanced mid-range dimension).
func benchDim(K int) int {
	switch {
	case K >= 1024:
		return 5
	case K >= 256:
		return 4
	default:
		return 3
	}
}

func benchPayloads(s *SendSets) []map[int][]byte {
	payloads := make([]map[int][]byte, s.K)
	for rank := 0; rank < s.K; rank++ {
		m := map[int][]byte{}
		for _, pr := range s.Sets[rank] {
			data := make([]byte, pr.Words*8)
			for i := range data {
				data[i] = byte(rank + i)
			}
			m[pr.Dst] = data
		}
		payloads[rank] = m
	}
	return payloads
}

func benchExchange(b *testing.B, K int, s *SendSets) {
	topo, err := BalancedTopology(K, benchDim(K))
	if err != nil {
		b.Fatal(err)
	}
	payloads := benchPayloads(s)
	w, err := LocalWorld(K)
	if err != nil {
		b.Fatal(err)
	}
	comms := w.Comms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := runtime.Run(comms, func(c runtime.Comm) error {
			_, err := Exchange(c, topo, payloads[c.Rank()])
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchange is the one-shot exchange on the balanced topology
// benchDim picks, per world size and skew pattern.
func BenchmarkExchange(b *testing.B) {
	for _, K := range []int{64, 256, 1024} {
		b.Run("hotspot/K="+itoa(K), func(b *testing.B) {
			benchExchange(b, K, scaleWords(hotSpotSends(K, 8), benchWordScale))
		})
		b.Run("powerlaw/K="+itoa(K), func(b *testing.B) {
			benchExchange(b, K, scaleWords(powerLawSends(K, 8), benchWordScale))
		})
	}
}

// BenchmarkExchangeDirect is a one-shot baseline BL on the hot-spot
// pattern BenchmarkExchange runs at K=256: each rank compiles its direct
// replay (core.NewDirectReplay, one frame per destination) and runs it
// once, gathering every payload word from x into its halo.
func BenchmarkExchangeDirect(b *testing.B) {
	K := 256
	s := scaleWords(hotSpotSends(K, 8), benchWordScale)
	recv := s.RecvSets()
	xs := make([][]float64, K)
	gathers := make([]map[int][]int32, K)
	srcWords := make([]map[int]int, K)
	for rank := 0; rank < K; rank++ {
		gathers[rank] = map[int][]int32{}
		for _, pr := range s.Sets[rank] {
			idx := make([]int32, pr.Words)
			for i := range idx {
				idx[i] = int32(len(xs[rank]) + i)
			}
			gathers[rank][pr.Dst] = idx
			xs[rank] = append(xs[rank], make([]float64, pr.Words)...)
		}
		for i := range xs[rank] {
			xs[rank][i] = float64(rank + i)
		}
		srcWords[rank] = map[int]int{}
		for _, pr := range recv[rank] {
			srcWords[rank][pr.Dst] = int(pr.Words)
		}
	}
	w, err := LocalWorld(K)
	if err != nil {
		b.Fatal(err)
	}
	comms := w.Comms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := runtime.Run(comms, func(c runtime.Comm) error {
			me := c.Rank()
			r, err := core.NewDirectReplay(me, K, len(xs[me]), gathers[me], srcWords[me])
			if err != nil {
				return err
			}
			return r.Run(c, xs[me], make([]float64, r.HaloWords()))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
