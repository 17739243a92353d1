package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

// shuffleComm is a regression harness for the old engine's silent
// fixed-order assumption: its misroute check compared a frame's From header
// against the neighbor the loop *expected*, which only worked because
// receives were issued in fixed digit order. shuffleComm implements
// runtime.AnyReceiver by picking a random pending sender and issuing a
// targeted Recv for it on the wrapped transport — legal because every
// candidate sends exactly one frame per stage tag — so the engine sees
// deliveries in an order that has nothing to do with digit order.
type shuffleComm struct {
	runtime.Passthrough
	mu  *sync.Mutex
	rng *rand.Rand
}

func (s *shuffleComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	s.mu.Lock()
	pick := from[s.rng.Intn(len(from))]
	s.mu.Unlock()
	payload, err := s.Comm.Recv(pick, tag)
	return pick, payload, err
}

func TestExchangeShuffledDeliveryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dims := range [][]int{{16}, {4, 4}, {2, 2, 2, 2}} {
		tp := vpt.MustNew(dims...)
		s := randomSendSets(rng, tp.Size(), 2, 3, 4)
		w, err := chanpt.NewWorld(tp.Size(), 2)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*Delivered, tp.Size())
		comms := w.Comms()
		wrapped := make([]runtime.Comm, len(comms))
		mu := &sync.Mutex{}
		shufRng := rand.New(rand.NewSource(62))
		for i, c := range comms {
			wrapped[i] = &shuffleComm{Passthrough: runtime.Passthrough{Comm: c}, mu: mu, rng: shufRng}
		}
		err = runtime.Run(wrapped, func(c runtime.Comm) error {
			payloads := map[int][]byte{}
			for _, pr := range s.Sets[c.Rank()] {
				payloads[pr.Dst] = payloadWords(c.Rank(), pr.Dst, pr.Words)
			}
			d, err := Exchange(c, tp, payloads)
			if err != nil {
				return err
			}
			got[c.Rank()] = d
			return nil
		})
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		checkDeliveries(t, s, got)
	}
}

// scriptAnyComm extends scriptComm with a scripted arrival-order matcher
// that always serves the LAST pending candidate first — the exact reverse
// of the digit order the old engine assumed.
type scriptAnyComm struct {
	*scriptComm
}

func (s *scriptAnyComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	pick := from[len(from)-1]
	payload, err := s.scriptComm.Recv(pick, tag)
	return pick, payload, err
}

// reverseScriptedWorld is scriptedWorld for T2(4,4) at rank 0, where stage
// 0 has three neighbors (ranks 1, 2, 3) and reverse-order delivery is
// actually observable.
func reverseScriptedWorld() (*scriptAnyComm, *vpt.Topology) {
	tp := vpt.MustNew(4, 4)
	sc := &scriptAnyComm{scriptComm: &scriptComm{rank: 0, size: 16}}
	for _, nb := range []int{1, 2, 3} {
		sc.queue(nb, 0, emptyFrame(nb, 0))
	}
	for _, nb := range []int{4, 8, 12} {
		sc.queue(nb, 1, emptyFrame(nb, 0))
	}
	return sc, tp
}

func TestExchangeAcceptsReverseArrivalOrder(t *testing.T) {
	sc, tp := reverseScriptedWorld()
	d, err := Exchange(sc, tp, map[int][]byte{5: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 0 {
		t.Errorf("unexpected deliveries: %+v", d.Subs)
	}
}

// The misroute check must validate the decoded From header against the
// sender the MATCHER reported, not against any assumed receive order: a
// frame whose header claims a different origin than the link it arrived on
// is a protocol error in every delivery order.
func TestExchangeDetectsMisrouteUnderArrivalOrder(t *testing.T) {
	sc, tp := reverseScriptedWorld()
	// The matcher serves candidates in reverse order, so rank 3 is matched
	// first in stage 0. Replace its frame with one claiming From=2: the
	// engine must flag the mismatch even though rank 2 is also a legitimate
	// stage-0 neighbor.
	sc.recvs[fmt.Sprintf("3/%d", tagBase)] = [][]byte{emptyFrame(2, 0)}
	_, err := Exchange(sc, tp, nil)
	if err == nil {
		t.Fatal("misrouted frame not detected under arrival-order receive")
	}
	if !strings.Contains(err.Error(), "misrouted") {
		t.Errorf("unexpected error: %v", err)
	}
}

// A frame addressed to a different receiver must be caught regardless of
// matcher order as well.
func TestExchangeDetectsWrongReceiverUnderArrivalOrder(t *testing.T) {
	sc, tp := reverseScriptedWorld()
	sc.recvs[fmt.Sprintf("3/%d", tagBase)] = [][]byte{emptyFrame(3, 7)}
	_, err := Exchange(sc, tp, nil)
	if err == nil {
		t.Fatal("wrongly addressed frame not detected")
	}
	if !strings.Contains(err.Error(), "misrouted") {
		t.Errorf("unexpected error: %v", err)
	}
}

// strayAnyComm serves its first receive from the script, then reports
// its second arrival as coming from rank from, with a well-formed frame,
// as a faulty transport might.
type strayAnyComm struct {
	*scriptAnyComm
	from  int
	calls int
}

func (s *strayAnyComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	s.calls++
	if s.calls == 2 {
		return s.from, emptyFrame(s.from, 0), nil
	}
	return s.scriptAnyComm.RecvAnyOf(tag, from)
}

// A frame the transport attributes to a rank the stage does not expect, or
// to a sender whose frame has already landed, is an error, never a slot of
// the stage.
func TestExchangeRejectsUnexpectedSender(t *testing.T) {
	for _, from := range []int{5, 3} { // outside stage 0's senders; rank 3 landed first
		sc, tp := reverseScriptedWorld()
		_, err := Exchange(&strayAnyComm{scriptAnyComm: sc, from: from}, tp, nil)
		if err == nil {
			t.Fatalf("frame from unexpected sender %d accepted", from)
		}
		if want := fmt.Sprintf("stage 0: frame from unexpected sender %d", from); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}
