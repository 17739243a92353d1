package core

import (
	"fmt"
	"strings"
	"testing"

	"stfw/internal/msg"
)

// learnScriptedPersistent performs a learning run on a rank-0 scriptComm for
// T3(2,2,2) whose inbound traffic includes one nonempty frame: rank 2
// forwards the submessage 6->0 in stage 1. The learned pattern therefore has
// a nonempty inbound slot layout that replays can violate.
func learnScriptedPersistent(t *testing.T) (*Persistent, *scriptComm) {
	t.Helper()
	sc, tp := scriptedWorld()
	learned := msg.Encode(nil, &msg.Message{
		From: 2, To: 0,
		Subs: []msg.Submessage{{Src: 6, Dst: 0, Data: []byte("hi")}},
	})
	sc.recvs[fmt.Sprintf("2/%d", tagBase+1)] = [][]byte{learned}
	p, d, err := NewPersistent(sc, tp, map[int][]byte{7: []byte("seed-payload")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 1 || d.Subs[0].Src != 6 || string(d.Subs[0].Data) != "hi" {
		t.Fatalf("learning deliveries: %+v", d.Subs)
	}
	sc.sent = nil
	return p, sc
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
	queueReplayFrames(sc, []msg.Submessage{{Src: 6, Dst: 0, Data: []byte("yo")}})
	d, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 1 || d.Subs[0].Src != 6 || d.Subs[0].Dst != 0 || string(d.Subs[0].Data) != "yo" {
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
	// Learned slot is 6->0; the frame carries 5->0 instead.
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
	// Right source, wrong destination: 6->3 instead of 6->0.
	queueReplayFrames(sc, []msg.Submessage{{Src: 6, Dst: 3, Data: []byte("yo")}})
	_, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")})
	if err == nil {
		t.Fatal("wrong-destination submessage not detected")
	}
	if !strings.Contains(err.Error(), "misrouted") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPersistentReplayRejectsSlotCountMismatch(t *testing.T) {
	p, sc := learnScriptedPersistent(t)
	queueReplayFrames(sc, []msg.Submessage{
		{Src: 6, Dst: 0, Data: []byte("yo")},
		{Src: 6, Dst: 4, Data: []byte("extra")},
	})
	_, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")})
	if err == nil {
		t.Fatal("slot-count mismatch not detected")
	}
	if !strings.Contains(err.Error(), "learned layout") {
		t.Errorf("unexpected error: %v", err)
	}
}

// Run's position table holds the caller's payloads and slices into the
// run's inbound frames, which go back to the frame pool as Run returns: no
// entry may survive the call, on the success path or on a fault.
func TestPersistentRunReleasesSlots(t *testing.T) {
	p, sc := learnScriptedPersistent(t)
	held := func() []string {
		var bad []string
		for i, b := range p.pos.data {
			if b != nil {
				bad = append(bad, fmt.Sprintf("data[%d]=%q", i, b))
			}
		}
		for i, s := range p.pos.subs {
			if s.Data != nil {
				bad = append(bad, fmt.Sprintf("subs[%d]=%q", i, s.Data))
			}
		}
		for i, s := range p.sm.decoded.Subs[:cap(p.sm.decoded.Subs)] {
			if s.Data != nil {
				bad = append(bad, fmt.Sprintf("decoded.Subs[%d]=%q", i, s.Data))
			}
		}
		return bad
	}

	queueReplayFrames(sc, []msg.Submessage{{Src: 6, Dst: 0, Data: []byte("yo")}})
	if _, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")}); err != nil {
		t.Fatal(err)
	}
	if len(p.pos.data) != 2 {
		t.Fatalf("position table has %d entries, want 2 (one payload, one inbound slot)", len(p.pos.data))
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
	queueReplayFrames(sc, []msg.Submessage{{Src: 6, Dst: 0, Data: []byte("ok")}})
	d, err := p.Run(sc, map[int][]byte{7: []byte("new-payload!")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 1 || string(d.Subs[0].Data) != "ok" {
		t.Errorf("recovered deliveries: %+v", d.Subs)
	}
}
