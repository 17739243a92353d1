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
// checks the conservation laws between the per-link counter blocks and
// the world-level stats: both are incremented at the same call sites, so
// the sums must agree exactly. It also checks per-directed-link frame
// symmetry (a's sends to b are b's receives from a — frames, unlike
// packets, are delivered exactly once) and RTT sanity.
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
	st := w.Stats()

	var sum runtime.LinkStats
	framesSent := map[[2]int]int64{} // (from, to) -> frames counted by the sender
	framesRecvd := map[[2]int]int64{}
	bytesSentF := map[[2]int]int64{}
	for r := 0; r < K; r++ {
		links := w.RankLinkStats(r)
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

	// World-vs-link conservation: each pair below is incremented at the
	// same call site, so equality is exact, not approximate.
	for _, c := range []struct {
		name        string
		world, link int64
	}{
		{"data packets", st.DataSent, sum.PktsSent},
		{"resends", st.Resends, sum.Resends()},
		{"acks sent", st.AcksSent, sum.AcksSent},
		{"acks suppressed", st.AcksSuppressed, sum.AcksSuppressed},
		{"stage acks", st.StageAcks, sum.StageAcks},
		{"dups", st.Dups, sum.Dups},
	} {
		if c.world != c.link {
			t.Errorf("%s: world %d != per-link sum %d", c.name, c.world, c.link)
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
