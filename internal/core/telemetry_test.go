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

// TestStageMachineSamplesWholeExchanges holds every exchange entry point to
// telemetry's sampling contract: an exchange opens with Rank.Sample, so of
// SampleEvery+1 exchanges only the first and the last leave spans, while
// the forward counters move by the same amount on every exchange, traced
// or not. A stage-machine front-end leaves one KStage span per stage;
// Persistent.Run, which runs the compiled replay, leaves the replay's
// spans: one KGather, then a KForward and a KDeliver per stage. Stage and
// deliver spans name a sender the stage expected as the last to arrive.
func TestStageMachineSamplesWholeExchanges(t *testing.T) {
	const K, exchanges = 8, telemetry.SampleEvery + 1
	tp := vpt.MustNew(2, 2, 2)
	dests := confSendSets(5, K)
	recvFrom := make([][]int, K)
	for src, ds := range dests {
		for _, dst := range ds {
			recvFrom[dst] = append(recvFrom[dst], src)
		}
	}
	for _, front := range []string{"Exchange", "DirectExchange", "Persistent.Run"} {
		t.Run(front, func(t *testing.T) {
			stages := tp.N()
			if front == "DirectExchange" {
				stages = 1
			}
			comms := confWorld(t, "chanpt", K, 2)
			reg := telemetry.MustNew(telemetry.Config{Ranks: K, Stages: stages})
			reg.WrapComms(comms, func(tag int) (int, bool) { return core.TagStage(tag, stages) })
			err := runtime.Run(comms, func(c runtime.Comm) error {
				me, tel := c.Rank(), reg.Rank(c.Rank())
				payloads := map[int][]byte{}
				for _, dst := range dests[me] {
					payloads[dst] = confPayload(me, dst)
				}
				// expect[d] is the set of senders stage d receives from.
				expect := make([][]int, stages)
				var exchange func() error
				switch front {
				case "Exchange":
					for d := range expect {
						expect[d] = []int{tp.WithDigit(me, d, 1-tp.Digit(me, d))}
					}
					exchange = func() error {
						_, err := core.Exchange(c, tp, payloads, core.WithTelemetry(tel))
						return err
					}
				case "DirectExchange":
					expect[0] = recvFrom[me]
					exchange = func() error {
						_, err := core.DirectExchange(c, payloads, recvFrom[me], core.WithTelemetry(tel))
						return err
					}
				case "Persistent.Run":
					p, _, err := core.NewPersistent(c, tp, payloads)
					if err != nil {
						return err
					}
					p.Instrument(tel)
					for d := range expect {
						expect[d] = p.Schedule().Stages[d].RecvFrom
					}
					exchange = func() error {
						_, err := p.Run(c, payloads)
						return err
					}
				}
				// want is the span sequence of one traced exchange.
				var want []telemetry.Span
				for d := 0; d < stages; d++ {
					if front != "Persistent.Run" {
						want = append(want, telemetry.Span{Kind: telemetry.KStage, Stage: int32(d)})
						continue
					}
					if d == 0 {
						want = append(want, telemetry.Span{Kind: telemetry.KGather, Stage: -1})
					}
					want = append(want, telemetry.Span{Kind: telemetry.KForward, Stage: int32(d)},
						telemetry.Span{Kind: telemetry.KDeliver, Stage: int32(d)})
				}
				var fwd0 int64
				for i := 0; i < exchanges; i++ {
					spans0, fwdBefore := tel.SpanCount(), forwardsOf(tel, stages)
					if err := exchange(); err != nil {
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
						if sp.Kind != telemetry.KStage && sp.Kind != telemetry.KDeliver {
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
		})
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
