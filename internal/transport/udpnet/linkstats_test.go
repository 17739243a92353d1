package udpnet

import (
	"bytes"
	"testing"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/vpt"
)

// TestLinkMetricsRTTEWMA pins the smoothing discipline: the first sample
// is stored directly, later samples fold in with the classic 1/8 gain,
// negative (clock-skew) samples are discarded, and the receiver's reported
// ack hold time comes off the raw round trip, clamping at zero.
func TestLinkMetricsRTTEWMA(t *testing.T) {
	m := &linkMetrics{}
	m.rttSample(-50, 0) // discarded, does not become the first sample
	m.rttSample(1000, 0)
	if got := m.srttNs.Load(); got != 1000 {
		t.Fatalf("first sample srtt = %d, want 1000", got)
	}
	m.rttSample(9000, 7000) // 2 us on the wire, 7 us held
	// 1000 + (2000-1000)>>3 = 1125
	if got := m.srttNs.Load(); got != 1125 {
		t.Fatalf("after second sample srtt = %d, want 1125", got)
	}
	m.rttSample(500, 4000) // hold exceeds the raw sample: counts as 0
	// 1125 + (0-1125)>>3 = 1125 - 141 = 984
	if got := m.srttNs.Load(); got != 984 {
		t.Fatalf("after clamped sample srtt = %d, want 984", got)
	}
	if got := m.rttSamples.Load(); got != 3 {
		t.Fatalf("rtt samples = %d, want 3", got)
	}
}

// TestLinkMetricsHotPathAllocs is the zero-allocation gate on the metric
// hooks themselves: per-link stats add atomic ops to the send/receive
// paths, never heap traffic.
func TestLinkMetricsHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	m := &linkMetrics{}
	allocs := testing.AllocsPerRun(200, func() {
		m.frameSent()
		m.pktSent(512)
		m.noteBacklog(3)
		m.resend(false)
		m.resend(true)
		m.sackRepair()
		m.windowStall()
		m.rttSample(1500, 200)
		m.pktRecvd(512)
		m.dup()
		m.frameRecvd()
		m.ackSent()
		m.ackSuppressed()
		m.stageAck()
		m.livenessAck()
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per hook sweep, want 0", allocs)
	}
}

// TestLinkStatsConservation runs a clean hinted steady-state exchange and
// checks the conservation laws of the per-link counter blocks:
// per-directed-link frame symmetry (a's sends to b are b's receives from a
// — frames, unlike packets, are delivered exactly once), wire bytes behind
// every packet and frame, and RTT sanity. World.Stats sums these same
// blocks, so there is no second copy to reconcile.
func TestLinkStatsConservation(t *testing.T) {
	const K, iters = 8, 50
	tp, err := vpt.NewBalanced(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		buf := bytes.Repeat([]byte{byte(c.Rank())}, 96)
		payloads := map[int][]byte{(c.Rank() + 3) % K: buf}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if _, err := p.Run(c, payloads); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum runtime.LinkStats
	framesSent := map[[2]int]int64{} // (from, to) -> frames counted by the sender
	framesRecvd := map[[2]int]int64{}
	bytesSentF := map[[2]int]int64{}
	for r := 0; r < K; r++ {
		links := runtime.LinkStatsOf(w.Comms()[r])
		if len(links) == 0 {
			t.Fatalf("rank %d has no link stats after a full exchange", r)
		}
		for _, l := range links {
			if l.Peer == r {
				t.Fatalf("rank %d reports a self link", r)
			}
			sum.Add(l)
			framesSent[[2]int{r, l.Peer}] = l.FramesSent
			framesRecvd[[2]int{l.Peer, r}] = l.FramesRecvd
			bytesSentF[[2]int{r, l.Peer}] = l.BytesSent
			if l.RTTSamples > 0 && l.SRTTNs <= 0 {
				t.Errorf("link %d->%d: %d RTT samples but srtt %d", r, l.Peer, l.RTTSamples, l.SRTTNs)
			}
			if l.PktsSent > 0 && l.BytesSent == 0 {
				t.Errorf("link %d->%d: %d packets sent but zero bytes", r, l.Peer, l.PktsSent)
			}
		}
	}

	if sum.PktsSent == 0 || sum.FramesSent == 0 {
		t.Fatal("no traffic recorded by the per-link counters")
	}
	if sum.RTTSamples == 0 {
		t.Error("no ack round trips sampled over a steady-state run")
	}

	// Frame symmetry: every frame the sender counted was delivered and
	// counted exactly once by the receiver (packet counts may legitimately
	// differ under kernel drops; frames may not).
	for k, sent := range framesSent {
		if got := framesRecvd[k]; got != sent {
			t.Errorf("link %d->%d: sender counted %d frames, receiver %d", k[0], k[1], sent, got)
		}
	}
	for k, recvd := range framesRecvd {
		if framesSent[k] != recvd {
			t.Errorf("link %d->%d: receiver counted %d frames, sender %d", k[0], k[1], recvd, framesSent[k])
		}
	}
	for k, b := range bytesSentF {
		if b == 0 && framesSent[k] > 0 {
			t.Errorf("link %d->%d: frames without wire bytes", k[0], k[1])
		}
	}
}
