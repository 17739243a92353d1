package core_test

import (
	"fmt"
	"slices"
	"testing"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/vpt"
)

// TestStageMachineSamplesWholeExchanges holds Persistent.Run to
// telemetry's sampling contract: an exchange opens with Rank.Sample, so of
// SampleEvery+1 exchanges only the first and the last leave spans, while
// the forward counters move by the same amount on every exchange, traced
// or not. A traced Run leaves the compiled replay's spans: one KGather,
// then a KForward and a KDeliver per stage. Deliver spans name a sender the
// stage expected as the last to arrive. The routing run (NewPersistent's
// learning run, and so Exchange) records no spans, so Persistent.Run is the
// one entry point checked here.
func TestStageMachineSamplesWholeExchanges(t *testing.T) {
	t.Run("Persistent.Run", testPersistentRunSamplesWholeExchanges)
}

func testPersistentRunSamplesWholeExchanges(t *testing.T) {
	const K, exchanges = 8, telemetry.SampleEvery + 1
	tp := vpt.MustNew(2, 2, 2)
	stages := tp.N()
	dests := confSendSets(5, K)
	comms := confWorld(t, "chanpt", K, 2)
	reg := telemetry.MustNew(telemetry.Config{Ranks: K, Stages: stages})
	reg.WrapComms(comms, func(tag int) (int, bool) { return core.TagStage(tag, stages) })
	err := runtime.Run(comms, func(c runtime.Comm) error {
		me, tel := c.Rank(), reg.Rank(c.Rank())
		payloads := map[int][]byte{}
		for _, dst := range dests[me] {
			payloads[dst] = confPayload(me, dst)
		}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		p.Instrument(tel)
		// expect[d] is the set of senders stage d receives from.
		expect := make([][]int, stages)
		for d := range expect {
			expect[d] = tp.Neighbors(nil, me, d)
		}
		// want is the span sequence of one traced exchange.
		want := []telemetry.Span{{Kind: telemetry.KGather, Stage: -1}}
		for d := 0; d < stages; d++ {
			want = append(want, telemetry.Span{Kind: telemetry.KForward, Stage: int32(d)},
				telemetry.Span{Kind: telemetry.KDeliver, Stage: int32(d)})
		}
		var fwd0 int64
		for i := 0; i < exchanges; i++ {
			spans0, fwdBefore := tel.SpanCount(), forwardsOf(tel, stages)
			if _, err := p.Run(c, payloads); err != nil {
				return fmt.Errorf("exchange %d: %w", i, err)
			}
			if f := forwardsOf(tel, stages) - fwdBefore; i == 0 {
				fwd0 = f
			} else if f != fwd0 {
				return fmt.Errorf("exchange %d counted %d forwards, exchange 0 counted %d", i, f, fwd0)
			}
			n := int(tel.SpanCount() - spans0)
			traced := i%telemetry.SampleEvery == 0
			if !traced {
				if n != 0 {
					return fmt.Errorf("untraced exchange %d left %d spans", i, n)
				}
				continue
			}
			if n != len(want) {
				return fmt.Errorf("traced exchange %d left %d spans, want %d", i, n, len(want))
			}
			all := tel.Spans()
			for k, sp := range all[len(all)-n:] {
				w := want[k]
				if sp.Kind != w.Kind || sp.Stage != w.Stage {
					return fmt.Errorf("exchange %d span %d: %v stage %d, want %v stage %d", i, k, sp.Kind, sp.Stage, w.Kind, w.Stage)
				}
				if sp.Kind != telemetry.KDeliver {
					if sp.Peer != -1 {
						return fmt.Errorf("exchange %d span %d: %v span names peer %d", i, k, sp.Kind, sp.Peer)
					}
					continue
				}
				d := int(sp.Stage)
				if ok := slices.Contains(expect[d], int(sp.Peer)) || (len(expect[d]) == 0 && sp.Peer == -1); !ok {
					return fmt.Errorf("exchange %d stage %d: last sender %d, expected one of %v", i, d, sp.Peer, expect[d])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reg.Snapshot().Ranks {
		if r.Traced != 2 {
			t.Errorf("rank %d traced %d exchanges, want 2", r.Rank, r.Traced)
		}
	}
}

// forwardsOf sums a rank's forwarded-submessage counters over its stages.
func forwardsOf(t *telemetry.Rank, stages int) int64 {
	var n int64
	for d := 0; d < stages; d++ {
		n += t.Counters(d).Forwards
	}
	return n
}
