package spmv

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"stfw/internal/core"
	"stfw/internal/msg"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

// gupta2Pattern partitions the scale-8 gupta2 analog K ways and returns it
// with its pattern.
func gupta2Pattern(tb testing.TB, K int) (*sparse.CSR, *partition.Partition, *Pattern) {
	tb.Helper()
	a, err := sparse.CatalogMatrix("gupta2", 8)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		tb.Fatal(err)
	}
	pat, err := BuildPattern(a, part)
	if err != nil {
		tb.Fatal(err)
	}
	return a, part, pat
}

type sentKey struct{ iter, tag, from, to int }

// recordingComm keeps a copy of every frame its rank sends, tagged with the
// multiply the rank is in (iter, set by the rank function between calls).
type recordingComm struct {
	runtime.Passthrough
	iter   int
	mu     *sync.Mutex
	frames map[sentKey][]byte
}

func (rc *recordingComm) Send(to, tag int, payload []byte) error {
	rc.mu.Lock()
	rc.frames[sentKey{rc.iter, tag, rc.Rank(), to}] = append([]byte(nil), payload...)
	rc.mu.Unlock()
	return rc.Comm.Send(to, tag, payload)
}

func (rc *recordingComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	return runtime.RecvAnyOf(rc.Comm, tag, from)
}

// TestCompiledFramesMatchEncode holds an STFW session's compiled frames to
// msg.Encode, byte for byte, on the gupta2 analog at K=64 over T3(4,4,4).
// Iteration 0 is core.NewPersistent's learning run on the session's packed
// x payloads, whose stage machine encodes every frame with msg.Encode;
// iteration 1 is the first Multiply of a session whose layout NewSession
// computed from the pattern, building the same frames in place — frame
// headers written by Run, own submessages by gather ops, forwarded
// submessages copied sub-header and all from inbound frames.
func TestCompiledFramesMatchEncode(t *testing.T) {
	const K = 64
	a, part, pat := gupta2Pattern(t, K)
	x := testVector(a.Cols, 11)
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	frames := map[sentKey][]byte{}
	comms := w.Comms()
	for i, c := range comms {
		comms[i] = &recordingComm{Passthrough: runtime.Passthrough{Comm: c}, mu: &mu, frames: frames}
	}
	opt := Options{Method: STFW, Topo: vpt.MustNew(4, 4, 4)}
	err = runtime.Run(comms, func(c runtime.Comm) error {
		payloads := map[int][]byte{}
		for dst, lst := range pat.SendIdx[c.Rank()] {
			for _, j := range lst {
				payloads[dst] = binary.LittleEndian.AppendUint64(payloads[dst], math.Float64bits(x[j]))
			}
		}
		if _, _, err := core.NewPersistent(c, opt.Topo, payloads); err != nil {
			return err
		}
		s, err := NewSession(c, a, part, pat, opt)
		if err != nil {
			return err
		}
		c.(*recordingComm).iter = 1
		_, err = s.Multiply(x)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	learned, forwarded := 0, 0
	for k, enc := range frames {
		if k.iter != 0 {
			continue
		}
		learned++
		got, ok := frames[sentKey{1, k.tag, k.from, k.to}]
		if !ok {
			t.Fatalf("computed session sent no frame %d->%d under tag %#x", k.from, k.to, k.tag)
		}
		if !bytes.Equal(got, enc) {
			t.Fatalf("frame %d->%d tag %#x: computed session's %d bytes differ from the learning run's encoding (%d bytes)",
				k.from, k.to, k.tag, len(got), len(enc))
		}
		m, err := msg.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range m.Subs {
			if sub.Src != m.From {
				forwarded++
			}
		}
	}
	if learned == 0 || len(frames) != 2*learned {
		t.Fatalf("learning run sent %d frames, it and the multiply %d in all", learned, len(frames))
	}
	if forwarded == 0 {
		t.Fatal("no frame carries a forwarded submessage")
	}
}

// BenchmarkComputePersistent times core.ComputePersistent the way
// NewSession calls it, one rank per op: the K=64 gupta2 analog (scale 8)
// on T3(4,4,4), ranks taken in turn.
func BenchmarkComputePersistent(b *testing.B) {
	const K = 64
	_, _, pat := gupta2Pattern(b, K)
	tp := vpt.MustNew(4, 4, 4)
	size := func(src, dst int) (int, bool) {
		lst, ok := pat.SendIdx[src][dst]
		return 8 * len(lst), ok
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ComputePersistent(tp, i%K, size); err != nil {
			b.Fatal(err)
		}
	}
}
