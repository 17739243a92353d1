package core

import (
	"fmt"
	"strings"
	"testing"

	"stfw/internal/msg"
	"stfw/internal/vpt"
)

// learnScriptedPersistent performs a learning run on a rank-0 scriptComm for
// T3(2,2,2) whose inbound traffic includes one nonempty frame: rank 2
// forwards the submessage 3->0 in stage 1, the last hop of its route
// 3 -> 2 -> 0. The learned pattern therefore has a nonempty inbound slot
// layout that replays can violate.
func learnScriptedPersistent(t *testing.T) (*Persistent, *scriptComm) {
	t.Helper()
	sc, tp := scriptedWorld()
	learned := msg.Encode(nil, &msg.Message{
		From: 2, To: 0,
		Subs: []msg.Submessage{{Src: 3, Dst: 0, Data: []byte("hi")}},
	})
	sc.recvs[fmt.Sprintf("2/%d", tagBase+1)] = [][]byte{learned}
	p, d, err := NewPersistent(sc, tp, map[int][]byte{7: []byte("seed-payload")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 1 || d.Subs[0].Src != 3 || string(d.Subs[0].Data) != "hi" {
		t.Fatalf("learning deliveries: %+v", d.Subs)
	}
	sc.sent = nil
	return p, sc
}

// TestLearningRunRejectsOffRoutePair: every pair travels its
// dimension-ordered route, and a learning run derives the frame each pair
// travels in from it, so a frame carrying a pair whose route does not enter
// the receiver from that sender in that stage fails the routing run, with
// or without a recorder, and so does a census frame carrying such an
// announcement — here 6->0 from rank 2 in stage 1, where the route
// 6 -> 4 -> 0 delivers it from rank 4 in stage 2. A pair for rank K agrees
// with rank 0 in every digit, so its route check passes; that it can go
// nowhere is found when it is scattered. The scripted submessage carries a
// well-formed announcement, so the census fails on its route, not its
// bytes.
func TestLearningRunRejectsOffRoutePair(t *testing.T) {
	runs := []struct {
		name string
		tag0 int // the run's stage-0 tag
		run  func(*scriptComm, *vpt.Topology) error
	}{
		{"NewPersistent", tagBase, func(sc *scriptComm, tp *vpt.Topology) error {
			_, _, err := NewPersistent(sc, tp, map[int][]byte{7: []byte("seed-payload")})
			return err
		}},
		{"Exchange", tagBase, func(sc *scriptComm, tp *vpt.Topology) error {
			_, err := Exchange(sc, tp, map[int][]byte{7: []byte("seed-payload")})
			return err
		}},
		{"Census", censusTagBase, func(sc *scriptComm, tp *vpt.Topology) error {
			_, err := Census(sc, tp, []PatchPair{{Src: 0, Dst: 7, Size: 8}})
			return err
		}},
	}
	for _, pair := range []struct {
		name     string
		from     int // the stage-1 sender
		src, dst int
		want     string
	}{
		{"off route", 2, 6, 0, "misrouted submessage 6->0 from 2"},
		{"dst = K", 2, 2, 8, "submessage for 8 cannot be forwarded"},
	} {
		for _, r := range runs {
			t.Run(pair.name+"/"+r.name, func(t *testing.T) {
				tp := vpt.MustNew(2, 2, 2)
				sc := &scriptComm{rank: 0, size: 8, recvs: map[string][][]byte{}}
				for d, from := range []int{1, 2, 4} {
					sc.recvs[fmt.Sprintf("%d/%d", from, r.tag0+d)] = [][]byte{emptyFrame(from, 0)}
				}
				sc.recvs[fmt.Sprintf("%d/%d", pair.from, r.tag0+1)] = [][]byte{msg.Encode(nil, &msg.Message{
					From: pair.from, To: 0,
					Subs: []msg.Submessage{{Src: pair.src, Dst: pair.dst, Data: []byte{annAdd, 8, 0, 0, 0}}},
				})}
				if err := r.run(sc, tp); err == nil || !strings.Contains(err.Error(), pair.want) {
					t.Fatalf("err = %v, want one naming %q", err, pair.want)
				}
			})
		}
	}
}

// queueReplayFrames loads a fresh round of scripted inbound frames for one
// Persistent.Run replay: empty frames from ranks 1 and 4, and the stage-1
// frame from rank 2 supplied by the caller.
func queueReplayFrames(sc *scriptComm, fromTwo []msg.Submessage) {
	sc.queue(1, 0, emptyFrame(1, 0))
	sc.queue(2, 1, msg.Encode(nil, &msg.Message{From: 2, To: 0, Subs: fromTwo}))
	sc.queue(4, 2, emptyFrame(4, 0))
}

func TestPersistentReplayDeliversScriptedSubmessage(t *testing.T) {
	p, sc := learnScriptedPersistent(t)
	queueReplayFrames(sc, []msg.Submessage{{Src: 3, Dst: 0, Data: []byte("yo")}})
	d, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 1 || d.Subs[0].Src != 3 || d.Subs[0].Dst != 0 || string(d.Subs[0].Data) != "yo" {
		t.Errorf("replay deliveries: %+v", d.Subs)
	}
	// The replay must emit the learned frames: the 0->7 payload to rank 1
	// in stage 0, then empty frames to ranks 2 and 4.
	if len(sc.sent) != 3 {
		t.Fatalf("sent %d frames, want 3", len(sc.sent))
	}
	first := sc.sent[0]
	if first.To != 1 || len(first.Subs) != 1 || first.Subs[0].Dst != 7 {
		t.Errorf("stage-0 frame: %+v", first)
	}
}

// A replayed frame whose submessage keys deviate from the learned slot
// layout must be rejected, not silently recorded at the learned slot's
// position. The seed executor accepted such frames and delivered the
// impostor payload under the learned key; this locks the validation in.
func TestPersistentReplayRejectsMisroutedSubmessage(t *testing.T) {
	p, sc := learnScriptedPersistent(t)
	// Learned slot is 3->0; the frame carries 5->0 instead.
	queueReplayFrames(sc, []msg.Submessage{{Src: 5, Dst: 0, Data: []byte("yo")}})
	_, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")})
	if err == nil {
		t.Fatal("misrouted submessage not detected")
	}
	if !strings.Contains(err.Error(), "misrouted") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPersistentReplayRejectsWrongDestination(t *testing.T) {
	p, sc := learnScriptedPersistent(t)
	// Right source, wrong destination: 3->1 instead of 3->0.
	queueReplayFrames(sc, []msg.Submessage{{Src: 3, Dst: 1, Data: []byte("yo")}})
	_, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")})
	if err == nil {
		t.Fatal("wrong-destination submessage not detected")
	}
	if !strings.Contains(err.Error(), "misrouted") {
		t.Errorf("unexpected error: %v", err)
	}
}

// A forwarded slot is checked where the replay consumes it, when it is
// forwarded: rank 0 learns to forward 1->2, received from rank 1 in stage 0
// and sent on to rank 2 in stage 1. A replay whose stage-0 frame carries
// 1->3 in that slot fails, naming the frame the slot came in, and the
// stage-1 frame goes out as poison instead of forwarding it.
func TestPersistentReplayRejectsMisroutedForward(t *testing.T) {
	sc, tp := scriptedWorld()
	fw := func(dst int) []byte {
		return msg.Encode(nil, &msg.Message{From: 1, To: 0, Subs: []msg.Submessage{{Src: 1, Dst: dst, Data: []byte("fw")}}})
	}
	sc.recvs[fmt.Sprintf("1/%d", tagBase)] = [][]byte{fw(2)}
	p, _, err := NewPersistent(sc, tp, map[int][]byte{})
	if err != nil {
		t.Fatal(err)
	}
	sc.recvs, sc.sent = nil, nil
	sc.queue(1, 0, fw(3))
	sc.queue(2, 1, emptyFrame(2, 0))
	sc.queue(4, 2, emptyFrame(4, 0))
	_, err = p.Run(sc, map[int][]byte{})
	if err == nil || !strings.Contains(err.Error(), "stage 0 frame from 1: misrouted submessage 1->3 (learned slot 1->2)") {
		t.Fatalf("misrouted forward: err = %v", err)
	}
	for _, m := range sc.sent {
		if len(m.Subs) > 0 {
			t.Errorf("frame to %d forwarded %+v", m.To, m.Subs)
		}
	}
}

func TestPersistentReplayRejectsSlotCountMismatch(t *testing.T) {
	p, sc := learnScriptedPersistent(t)
	queueReplayFrames(sc, []msg.Submessage{
		{Src: 3, Dst: 0, Data: []byte("yo")},
		{Src: 3, Dst: 4, Data: []byte("extra")},
	})
	_, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")})
	if err == nil {
		t.Fatal("slot-count mismatch not detected")
	}
	if !strings.Contains(err.Error(), "learned layout") {
		t.Errorf("unexpected error: %v", err)
	}
}

// Run's lowered replay binds the caller's payloads for the length of the
// call, and retains the run's inbound frames, which go back to the frame
// pool as Run returns: none of them may survive the call, on the success
// path or on a fault. The delivery arena is the Persistent's own, kept
// across Runs under the Delivered it returns.
func TestPersistentRunReleasesSlots(t *testing.T) {
	p, sc := learnScriptedPersistent(t)
	held := func() []string {
		var bad []string
		for i, b := range p.rp.inFrames {
			if b != nil {
				bad = append(bad, fmt.Sprintf("inFrames[%d] (%d bytes)", i, len(b)))
			}
		}
		for i, b := range p.rp.pays {
			if b != nil {
				bad = append(bad, fmt.Sprintf("pays[%d]=%q", i, b))
			}
		}
		return bad
	}

	queueReplayFrames(sc, []msg.Submessage{{Src: 3, Dst: 0, Data: []byte("yo")}})
	if _, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")}); err != nil {
		t.Fatal(err)
	}
	if len(p.rp.pays) != 1 || len(p.rp.inFrames) != 3 {
		t.Fatalf("replay binds %d payloads and retains %d frames, want 1 and 3", len(p.rp.pays), len(p.rp.inFrames))
	}
	if bad := held(); len(bad) > 0 {
		t.Errorf("after a replay the Persistent still holds %v", bad)
	}

	sc.recvs, sc.sent = nil, nil
	queueReplayFrames(sc, []msg.Submessage{{Src: 5, Dst: 0, Data: []byte("yo")}})
	if _, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")}); err == nil || !strings.Contains(err.Error(), "misrouted") {
		t.Fatalf("misrouted replay: err = %v", err)
	}
	if bad := held(); len(bad) > 0 {
		t.Errorf("after a misrouted replay the Persistent still holds %v", bad)
	}
}

// A failed replay must not poison the Persistent: the next correct replay
// still succeeds (every slot is re-recorded from scratch each Run).
func TestPersistentReplayRecoversAfterFault(t *testing.T) {
	p, sc := learnScriptedPersistent(t)
	queueReplayFrames(sc, []msg.Submessage{{Src: 5, Dst: 0, Data: []byte("bad")}})
	if _, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")}); err == nil {
		t.Fatal("misrouted submessage not detected")
	}
	sc.recvs = nil
	sc.sent = nil
	queueReplayFrames(sc, []msg.Submessage{{Src: 3, Dst: 0, Data: []byte("ok")}})
	d, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 1 || string(d.Subs[0].Data) != "ok" {
		t.Errorf("recovered deliveries: %+v", d.Subs)
	}
}
