// StageSchedule is the intermediate representation behind every exchange
// path: a per-rank program of n communication stages, each listing the
// outbound frame slots (destination, in send order, with the expected
// submessage occupancy when a front-end knows it) and the expected inbound
// sender set. Two loops execute it, with one receive discipline
// (runtime.RecvPolicy): route, the one loop that routes frames as they
// land, and the compiled Replay's. What differs between the public APIs is
// which front-end builds the schedule:
//
//   - dynamic    — from the topology alone (the learning run, and so
//     Exchange): every dimension-d neighbor is both a send and a receive
//     slot, and routing decisions are made per submessage as each stage's
//     frames land;
//   - learned    — from a Persistent's recorded pattern (Persistent.Run):
//     the dynamic schedule's skeleton, each send slot carrying its learned
//     frame's occupancy. Every frame of a learned pattern lists its slots
//     in ascending (src, dst) order, which Algorithm 1 leaves free, so a
//     learned, a patched and a computed layout (ComputePersistent) are the
//     same bytes;
//   - compiled   — Persistent.Compile lowers the learned schedule further
//     into a Replay: the same stage skeleton with every frame reduced to
//     its size and fixed-offset ops — header writes, gathers, and
//     forward copies that carry each sub-header with its payload (see
//     compiled.go);
//   - direct     — the single-stage baseline BL: one frame per
//     destination, one expected frame per source. NewDirectReplay compiles
//     it straight into a Replay, and DirectWorldSchedules builds it as IR
//     for the world verifier; no loop routes it.
//
// This is the persistent/isomorphic-collective framing: a communication
// pattern is data (a schedule), and executing it is one generic loop.
package core

import (
	"fmt"
	"slices"

	"stfw/internal/vpt"
)

// SendSlot is one outbound frame of a schedule stage: the destination rank
// and, when the front-end knows it, the exact number of submessages the
// frame will carry (0 = unknown or empty; VerifyWorldAgainstPlan holds a
// learned schedule's occupancies to the plan's).
type SendSlot struct {
	To      int
	Reserve int
}

// ScheduleStage is one communication stage of the IR.
type ScheduleStage struct {
	// Tag is the transport tag all frames of the stage travel under.
	Tag int
	// Dim is the VPT dimension the stage traverses — the routing digit its
	// frames advance. Historically this was implicit in the tag layout
	// (Tag == StageTag(Dim)); it is explicit so that consumers below the
	// schedule layer (composite transports, telemetry attribution) route by
	// dimension metadata instead of reversing tag arithmetic. The direct
	// baseline's single stage uses Dim 0. Every front-end populates it and
	// VerifyWorld checks it stays in lockstep across ranks.
	Dim int
	// Sends lists the outbound frames in send order. A slot produces a
	// frame even when it carries no submessages: empty frames keep every
	// rank's receive count deterministic.
	Sends []SendSlot
	// RecvFrom is the set of ranks that send this rank a frame in the
	// stage, in ascending rank order. Frames are received and routed in
	// arrival order, so the order carries no meaning beyond letting a
	// receiver find a sender by binary search.
	RecvFrom []int
}

// StageSchedule is the per-rank IR of one exchange.
type StageSchedule struct {
	Stages []ScheduleStage
}

// buildTopologySchedule is the dynamic front-end: stage d talks to every
// dimension-d neighbor, in digit order, with no occupancy annotations.
func buildTopologySchedule(t *vpt.Topology, me int) *StageSchedule {
	sched := &StageSchedule{Stages: make([]ScheduleStage, t.N())}
	for d := 0; d < t.N(); d++ {
		st := &sched.Stages[d]
		st.Tag = StageTag(d)
		st.Dim = d
		myDigit := t.Digit(me, d)
		kd := t.Dim(d)
		st.Sends = make([]SendSlot, 0, kd-1)
		st.RecvFrom = make([]int, 0, kd-1)
		for x := 0; x < kd; x++ {
			if x == myDigit {
				continue
			}
			nbr := t.WithDigit(me, d, x)
			st.Sends = append(st.Sends, SendSlot{To: nbr})
			st.RecvFrom = append(st.RecvFrom, nbr)
		}
	}
	return sched
}

// buildDirectSchedule is the single-stage baseline schedule: one frame per
// destination (send order = ascending rank) and one expected frame per
// source (RecvFrom sorted; a source listed twice stays so, for
// validateSchedule to reject).
func buildDirectSchedule(me int, dests []int, recvFrom []int) *StageSchedule {
	st := ScheduleStage{Tag: tagBase - 1, Dim: 0}
	for _, dst := range dests {
		if dst == me {
			continue
		}
		st.Sends = append(st.Sends, SendSlot{To: dst, Reserve: 1})
	}
	for _, from := range recvFrom {
		if from == me {
			continue
		}
		st.RecvFrom = append(st.RecvFrom, from)
	}
	slices.Sort(st.RecvFrom)
	return &StageSchedule{Stages: []ScheduleStage{st}}
}

// validateSchedule sanity-checks a schedule against a world size: every
// slot names another rank of the world, RecvFrom is strictly ascending (the
// receive loops find a sender by binary search), and no stage lists a
// destination or a sender twice — the receive loop would wait for a second
// frame that never comes. Every schedule built in this package sends in
// ascending order too, so only a hand-built one costs a set.
func validateSchedule(sched *StageSchedule, me, size int) error {
	for d := range sched.Stages {
		st := &sched.Stages[d]
		ascending := true
		for i, s := range st.Sends {
			if s.To < 0 || s.To >= size || s.To == me {
				return fmt.Errorf("core: schedule stage %d: send slot to %d invalid for rank %d of %d", d, s.To, me, size)
			}
			ascending = ascending && (i == 0 || st.Sends[i-1].To < s.To)
		}
		if !ascending {
			seen := make(map[int]bool, len(st.Sends))
			for _, s := range st.Sends {
				if seen[s.To] {
					return fmt.Errorf("core: schedule stage %d: rank %d has duplicate send slot to %d", d, me, s.To)
				}
				seen[s.To] = true
			}
		}
		for i, f := range st.RecvFrom {
			if f < 0 || f >= size || f == me {
				return fmt.Errorf("core: schedule stage %d: recv slot from %d invalid for rank %d of %d", d, f, me, size)
			}
			if i > 0 && f <= st.RecvFrom[i-1] {
				if slices.Contains(st.RecvFrom[:i], f) {
					return fmt.Errorf("core: schedule stage %d: rank %d expects duplicate frame from %d", d, me, f)
				}
				return fmt.Errorf("core: schedule stage %d: rank %d lists its senders %v out of ascending order", d, me, st.RecvFrom)
			}
		}
	}
	return nil
}
