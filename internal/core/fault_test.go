package core

import (
	"fmt"
	"strings"
	"testing"

	"stfw/internal/msg"
	"stfw/internal/vpt"
)

// scriptComm is a single-rank mock Comm that records sends and serves
// scripted receive frames, letting fault tests exercise the executor's
// defensive checks deterministically and without a live world (where an
// erroring rank would deadlock its neighbors).
type scriptComm struct {
	rank, size int
	recvs      map[string][][]byte // "from/tag" -> queued frames
	sent       []msg.Message
}

func (s *scriptComm) Rank() int { return s.rank }
func (s *scriptComm) Size() int { return s.size }

func (s *scriptComm) Send(to, tag int, payload []byte) error {
	m, err := msg.Decode(payload)
	if err != nil {
		return err
	}
	s.sent = append(s.sent, *m)
	return nil
}

func (s *scriptComm) Recv(from, tag int) ([]byte, error) {
	key := fmt.Sprintf("%d/%d", from, tag)
	q := s.recvs[key]
	if len(q) == 0 {
		return nil, fmt.Errorf("script exhausted for %s", key)
	}
	f := q[0]
	s.recvs[key] = q[1:]
	return f, nil
}

func (s *scriptComm) Barrier() error { return nil }

// queue registers a frame to be served for (from, stage).
func (s *scriptComm) queue(from, stage int, frame []byte) {
	if s.recvs == nil {
		s.recvs = map[string][][]byte{}
	}
	key := fmt.Sprintf("%d/%d", from, tagBase+stage)
	s.recvs[key] = append(s.recvs[key], frame)
}

// emptyFrame builds a well-formed empty frame from -> to.
func emptyFrame(from, to int) []byte {
	return msg.Encode(nil, &msg.Message{From: from, To: to})
}

// scriptedWorld prepares a rank-0 scriptComm for T3(2,2,2) with clean empty
// frames from all three neighbors (ranks 1, 2, 4), which the test then
// corrupts selectively.
func scriptedWorld() (*scriptComm, *vpt.Topology) {
	tp := vpt.MustNew(2, 2, 2)
	sc := &scriptComm{rank: 0, size: 8}
	sc.queue(1, 0, emptyFrame(1, 0))
	sc.queue(2, 1, emptyFrame(2, 0))
	sc.queue(4, 2, emptyFrame(4, 0))
	return sc, tp
}

func TestExchangeCleanScript(t *testing.T) {
	sc, tp := scriptedWorld()
	d, err := Exchange(sc, tp, map[int][]byte{7: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 0 {
		t.Errorf("unexpected deliveries: %+v", d.Subs)
	}
	// Rank 0 sends exactly one nonempty frame (stage 0 toward digit 1) and
	// two empty ones.
	nonempty := 0
	for _, m := range sc.sent {
		if len(m.Subs) > 0 {
			nonempty++
		}
	}
	if len(sc.sent) != 3 || nonempty != 1 {
		t.Errorf("sent %d frames, %d nonempty", len(sc.sent), nonempty)
	}
}

func TestExchangeDetectsTruncatedFrame(t *testing.T) {
	sc, tp := scriptedWorld()
	full := emptyFrame(1, 0)
	sc.recvs[fmt.Sprintf("1/%d", tagBase)] = [][]byte{full[:len(full)-2]}
	_, err := Exchange(sc, tp, nil)
	if err == nil {
		t.Fatal("truncated frame not detected")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestExchangeDetectsMisroutedFrame(t *testing.T) {
	sc, tp := scriptedWorld()
	// Frame claims to be 1 -> 3 but arrives at rank 0 from rank 1.
	sc.recvs[fmt.Sprintf("1/%d", tagBase)] = [][]byte{emptyFrame(1, 3)}
	_, err := Exchange(sc, tp, nil)
	if err == nil {
		t.Fatal("misrouted frame not detected")
	}
	if !strings.Contains(err.Error(), "misrouted") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestExchangeDetectsWrongSender(t *testing.T) {
	sc, tp := scriptedWorld()
	// Frame claims From=5 but is served on the link from rank 1.
	sc.recvs[fmt.Sprintf("1/%d", tagBase)] = [][]byte{emptyFrame(5, 0)}
	_, err := Exchange(sc, tp, nil)
	if err == nil {
		t.Fatal("wrong sender not detected")
	}
}

func TestExchangeDetectsUnforwardableSubmessage(t *testing.T) {
	sc, tp := scriptedWorld()
	// A submessage arriving in stage 2 (last dimension) for rank K = 8,
	// outside the world: 8 agrees with rank 0 in every digit, so the route
	// check lets it in, but it is not rank 0 and has no digit left to
	// correct — it can never be forwarded. (A pair for a real rank that
	// differs from rank 0 in an earlier dimension does not get this far:
	// its route does not enter rank 0 in stage 2.)
	bad := msg.Encode(nil, &msg.Message{
		From: 4, To: 0,
		Subs: []msg.Submessage{{Src: 4, Dst: 8, Data: []byte("zz")}},
	})
	sc.recvs[fmt.Sprintf("4/%d", tagBase+2)] = [][]byte{bad}
	_, err := Exchange(sc, tp, nil)
	if err == nil {
		t.Fatal("unforwardable submessage not detected")
	}
	if !strings.Contains(err.Error(), "cannot be forwarded") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestExchangeDeliversScriptedSubmessage(t *testing.T) {
	sc, tp := scriptedWorld()
	// A legitimate forwarded submessage arriving in stage 1 for rank 0:
	// the route 3 -> 2 -> 0.
	good := msg.Encode(nil, &msg.Message{
		From: 2, To: 0,
		Subs: []msg.Submessage{{Src: 3, Dst: 0, Data: []byte("hi")}},
	})
	sc.recvs[fmt.Sprintf("2/%d", tagBase+1)] = [][]byte{good}
	d, err := Exchange(sc, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 1 || d.Subs[0].Src != 3 || string(d.Subs[0].Data) != "hi" {
		t.Errorf("deliveries: %+v", d.Subs)
	}
}

// A submessage that still needs a later-stage forward must be placed in the
// right buffer and sent onward.
func TestExchangeForwardsScriptedSubmessage(t *testing.T) {
	sc, tp := scriptedWorld()
	// Arrives at stage 0 from rank 1, destined for rank 4 (differs from
	// rank 0 in dimension 2) -> must be forwarded in stage 2 to rank 4.
	fwd := msg.Encode(nil, &msg.Message{
		From: 1, To: 0,
		Subs: []msg.Submessage{{Src: 1, Dst: 4, Data: []byte("fw")}},
	})
	sc.recvs[fmt.Sprintf("1/%d", tagBase)] = [][]byte{fwd}
	if _, err := Exchange(sc, tp, nil); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, m := range sc.sent {
		for _, sub := range m.Subs {
			if sub.Dst == 4 && string(sub.Data) == "fw" {
				if m.To != 4 {
					t.Errorf("forwarded to %d, want 4", m.To)
				}
				found = true
			}
		}
	}
	if !found {
		t.Error("submessage was not forwarded")
	}
}

// A receive that fails names the stage and the senders whose frames had not
// arrived, computed from the stage's received set: in T3(2,2,2) stage 1 has
// one sender, and in T2(4,4) under reverse arrival order ranks 3 and 2 have
// landed before the receive for rank 1 fails.
func TestExchangeRecvErrorNamesOutstandingSenders(t *testing.T) {
	sc, tp := scriptedWorld()
	delete(sc.recvs, fmt.Sprintf("2/%d", tagBase+1))
	_, err := Exchange(sc, tp, nil)
	if err == nil {
		t.Fatal("missing frame not reported")
	}
	if text := err.Error(); !strings.Contains(text, "stage 1 ") || !strings.Contains(text, "outstanding senders [2]") {
		t.Errorf("error does not name stage 1 and rank 2 as outstanding: %v", err)
	}

	rsc, rtp := reverseScriptedWorld()
	delete(rsc.recvs, fmt.Sprintf("1/%d", tagBase))
	_, err = Exchange(rsc, rtp, nil)
	if err == nil {
		t.Fatal("missing frame not reported")
	}
	if text := err.Error(); !strings.Contains(text, "stage 0 ") || !strings.Contains(text, "outstanding senders [1]") {
		t.Errorf("error does not name stage 0 and rank 1 as outstanding: %v", err)
	}
}
