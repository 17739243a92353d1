package spmv

import (
	"bytes"
	"sync"
	"testing"

	"stfw/internal/msg"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

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
// The first multiply is the learning run, whose stage machine encodes every
// frame with msg.Encode and records the layout those frames carry; the
// second, with the same x, is the compiled Replay building the same frames
// in place — frame headers written by Run, own submessages by gather ops,
// forwarded submessages copied sub-header and all from inbound frames.
func TestCompiledFramesMatchEncode(t *testing.T) {
	const K = 64
	a, err := sparse.CatalogMatrix("gupta2", 8)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
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
		s, err := NewSession(c, a, part, pat, opt)
		if err != nil {
			return err
		}
		for iter := 0; iter < 2; iter++ {
			c.(*recordingComm).iter = iter
			if _, err := s.Multiply(x); err != nil {
				return err
			}
		}
		return nil
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
			t.Fatalf("compiled replay sent no frame %d->%d under tag %#x", k.from, k.to, k.tag)
		}
		if !bytes.Equal(got, enc) {
			t.Fatalf("frame %d->%d tag %#x: compiled %d bytes differ from the learning run's encoding (%d bytes)",
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
		t.Fatalf("learning run sent %d frames, the two multiplies %d in all", learned, len(frames))
	}
	if forwarded == 0 {
		t.Fatal("no frame carries a forwarded submessage")
	}
}
