package core

import (
	"fmt"
	"strings"
	"testing"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

// TestCensusResizeIsOneSubmessage: a removal plus an addition of one pair
// is a resize, and it rides as one announcement, so the pair is one
// submessage on every hop of its route, as every pair of a payload
// exchange is. In T3(2,2,2) the route of 0->7 is 0 -> 1 -> 3 -> 7; every
// frame on it carries the pair once, as an annResize record with the new
// size, and every rank of the route gets back the removal and the addition
// in that order.
func TestCensusResizeIsOneSubmessage(t *testing.T) {
	tp := vpt.MustNew(2, 2, 2)
	w, err := chanpt.NewWorld(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var fr frameRecorder
	got := make([]*PatchDelta, 8)
	err = runtime.Run(fr.wrapAll(w.Comms()), func(c runtime.Comm) error {
		var own []PatchPair
		if c.Rank() == 0 {
			own = []PatchPair{{Src: 0, Dst: 7, Size: 24}, {Src: 0, Dst: 7, Remove: true}}
		}
		pd, err := Census(c, tp, own)
		got[c.Rank()] = pd
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	hops := map[sentKey]bool{}
	for k, raw := range fr.frames {
		m, err := msg.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range m.Subs {
			if string(sub.Data) != string([]byte{annResize, 24, 0, 0, 0}) {
				t.Errorf("frame %+v carries %d->%d as %x, want one resize to 24 bytes", k, sub.Src, sub.Dst, sub.Data)
			}
		}
		if len(m.Subs) > 0 {
			hops[k] = len(m.Subs) == 1
		}
	}
	want := map[sentKey]bool{
		{censusTagBase, 0, 1}: true, {censusTagBase + 1, 1, 3}: true, {censusTagBase + 2, 3, 7}: true,
	}
	if fmt.Sprint(hops) != fmt.Sprint(want) {
		t.Errorf("nonempty census frames %v, want one submessage on each hop %v", hops, want)
	}
	pair := []PatchPair{{Src: 0, Dst: 7, Remove: true}, {Src: 0, Dst: 7, Size: 24}}
	for me, pd := range got {
		onRoute := me == 0 || me == 1 || me == 3 || me == 7
		if onRoute && fmt.Sprint(pd.Pairs) != fmt.Sprint(pair) || !onRoute && len(pd.Pairs) != 0 {
			t.Errorf("rank %d: census returned %+v", me, pd.Pairs)
		}
	}
}

// TestCensusRecvErrorNamesOutstandingSenders: a census is route under the
// census tags, so a receive that fails is attributed as a learning run's
// is — the stage, its dimension and the senders whose frames had not
// landed.
func TestCensusRecvErrorNamesOutstandingSenders(t *testing.T) {
	tp := vpt.MustNew(2, 2, 2)
	sc := &scriptComm{rank: 0, size: 8, recvs: map[string][][]byte{}}
	sc.recvs[fmt.Sprintf("1/%d", censusTagBase)] = [][]byte{emptyFrame(1, 0)}
	_, err := Census(sc, tp, []PatchPair{{Src: 0, Dst: 3, Size: 8}})
	if err == nil {
		t.Fatal("missing census frame not reported")
	}
	if want := "stage 1 (dimension 1) recv, outstanding senders [2]"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want one naming %q", err, want)
	}
}

// TestCensusValidation: own pairs are checked before any frame is sent, so
// a lone rank can probe every rejection.
func TestCensusValidation(t *testing.T) {
	tp := vpt.MustNew(2, 2, 2)
	for _, tc := range []struct {
		name string
		own  []PatchPair
		want string
	}{
		{"other rank's pair", []PatchPair{{Src: 1, Dst: 2, Size: 8}}, "of another rank"},
		{"dst out of range", []PatchPair{{Src: 0, Dst: 8, Size: 8}}, "out of range"},
		{"negative size", []PatchPair{{Src: 0, Dst: 2, Size: -8}}, "negative size"},
		{"two additions", []PatchPair{{Src: 0, Dst: 2, Size: 8}, {Src: 0, Dst: 2, Size: 16}}, "announced twice"},
		{"two removals", []PatchPair{{Src: 0, Dst: 2, Remove: true}, {Src: 0, Dst: 2, Remove: true}}, "announced twice"},
		{"after a resize", []PatchPair{{Src: 0, Dst: 2, Remove: true}, {Src: 0, Dst: 2, Size: 8}, {Src: 0, Dst: 2, Size: 8}}, "announced twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := &scriptComm{rank: 0, size: 8}
			_, err := Census(sc, tp, tc.own)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			if len(sc.sent) != 0 {
				t.Errorf("%d frames sent before the rejection", len(sc.sent))
			}
		})
	}
}
