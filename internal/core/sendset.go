// Package core implements the paper's primary contribution: the
// store-and-forward (STFW) algorithm that realizes an arbitrary set of
// point-to-point messages on a virtual process topology (Algorithm 1), the
// direct baseline exchange (BL), a static router that computes the exact
// per-stage communication of a run without executing it, and the closed-form
// analysis of Section 4.
package core

import (
	"fmt"
	"sort"

	"stfw/internal/vpt"
)

// Pair is one entry of a process's send list: Words words of payload
// destined for rank Dst. The paper measures volume in words; the library
// treats a word as 8 bytes when real payloads are materialized.
type Pair struct {
	Dst   int
	Words int64
}

// SendSets is the global communication requirement: Sets[i] lists the
// destinations (and message sizes) of rank i, i.e. SendSet(P_i). Each list
// is sorted by destination and contains no duplicates or self-sends once
// Normalize has run. A pair of zero words is still a message: the runtime
// sends its empty submessage along the pair's whole route.
type SendSets struct {
	K    int
	Sets [][]Pair
}

// NewSendSets creates empty send sets for K ranks.
func NewSendSets(K int) *SendSets {
	return &SendSets{K: K, Sets: make([][]Pair, K)}
}

// Add records that rank src sends words words to rank dst. Repeated Adds for
// the same pair accumulate.
func (s *SendSets) Add(src, dst int, words int64) {
	s.Sets[src] = append(s.Sets[src], Pair{Dst: dst, Words: words})
}

// Normalize sorts each send list, merges duplicate destinations, and drops
// self-sends. Zero-size entries stay: they are pairs (see SendSets). It
// returns an error on out-of-range ranks or negative sizes.
func (s *SendSets) Normalize() error {
	for src := range s.Sets {
		set := s.Sets[src]
		for _, p := range set {
			if p.Dst < 0 || p.Dst >= s.K {
				return fmt.Errorf("core: rank %d sends to out-of-range rank %d", src, p.Dst)
			}
			if p.Words < 0 {
				return fmt.Errorf("core: rank %d sends negative volume to %d", src, p.Dst)
			}
		}
		sort.Slice(set, func(i, j int) bool { return set[i].Dst < set[j].Dst })
		out := set[:0]
		for _, p := range set {
			if p.Dst == src {
				continue
			}
			if n := len(out); n > 0 && out[n-1].Dst == p.Dst {
				out[n-1].Words += p.Words
			} else {
				out = append(out, p)
			}
		}
		s.Sets[src] = out
	}
	return nil
}

// TotalWords returns the sum of all message sizes (the volume of the direct
// baseline exchange).
func (s *SendSets) TotalWords() int64 {
	var n int64
	for _, set := range s.Sets {
		for _, p := range set {
			n += p.Words
		}
	}
	return n
}

// TotalMessages returns the total number of point-to-point messages
// requested.
func (s *SendSets) TotalMessages() int {
	n := 0
	for _, set := range s.Sets {
		n += len(set)
	}
	return n
}

// RecvSets returns the transpose: RecvSets()[j] lists the (src, words) pairs
// rank j receives, sorted by source. The direct baseline needs this to know
// how many messages to expect; in applications (e.g. SpMV) the receive sets
// are known from the data distribution.
func (s *SendSets) RecvSets() [][]Pair {
	recv := make([][]Pair, s.K)
	for src, set := range s.Sets {
		for _, p := range set {
			recv[p.Dst] = append(recv[p.Dst], Pair{Dst: src, Words: p.Words})
		}
	}
	for j := range recv {
		sort.Slice(recv[j], func(a, b int) bool { return recv[j][a].Dst < recv[j][b].Dst })
	}
	return recv
}

// Complete returns the worst-case scenario of Section 4: every rank sends
// words words to every other rank.
func Complete(K int, words int64) *SendSets {
	s := NewSendSets(K)
	for i := 0; i < K; i++ {
		set := make([]Pair, 0, K-1)
		for j := 0; j < K; j++ {
			if j != i {
				set = append(set, Pair{Dst: j, Words: words})
			}
		}
		s.Sets[i] = set
	}
	return s
}

// ValidateTopology checks that the send sets and topology agree on K.
func (s *SendSets) ValidateTopology(t *vpt.Topology) error {
	if t.Size() != s.K {
		return fmt.Errorf("core: topology size %d != world size %d", t.Size(), s.K)
	}
	return nil
}
