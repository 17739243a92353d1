// StageSchedule is the intermediate representation behind every exchange
// path: a per-rank program of n communication stages, each listing the
// outbound frame slots (destination, in send order, with the expected
// submessage occupancy when a front-end knows it) and the expected inbound
// sender set. One stage machine (engine.go) executes the IR under a
// configurable receive policy and frame-sourcing discipline; what differs
// between the public APIs is only which front-end builds the schedule:
//
//   - dynamic    — from the topology alone (Exchange without a plan):
//     every dimension-d neighbor is both a send and a receive slot, and
//     routing decisions are made per submessage as frames land;
//   - plan-driven — from a static Plan's route entries (Exchange with
//     WithPlan): the same stage structure annotated with each outbound
//     frame's exact submessage count, so the rank's forward buffers are
//     sized once instead of grown per call. The schedule is built once per
//     (plan, rank) and cached inside the Plan;
//   - learned    — from a Persistent's recorded pattern (Persistent.Run):
//     send slots carry the learned frame layouts, and the inbound sender
//     set is the learning run's;
//   - compiled   — Persistent.Compile lowers the learned schedule further
//     into a Replay: the same stage skeleton with every frame reduced to
//     its size and fixed-offset ops — header writes, gathers, and
//     forward copies that carry each sub-header with its payload (see
//     compiled.go).
//
// This is the persistent/isomorphic-collective framing: a communication
// pattern is data (a schedule), and executing it is one generic machine.
package core

import (
	"fmt"
	"sync"

	"stfw/internal/runtime"
	"stfw/internal/vpt"
)

// SendSlot is one outbound frame of a schedule stage: the destination rank
// and, when the front-end knows it, the exact number of submessages the
// frame will carry (0 = unknown; used to pre-size forward buffers).
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
	// stage. The receive policy (fixed-order vs arrival-order) chooses the
	// order in which they are served.
	RecvFrom []int
}

// StageSchedule is the per-rank IR the stage machine executes.
type StageSchedule struct {
	Stages []ScheduleStage

	// traffic caches the transport hint built by Traffic. Safe to cache
	// even under dynamic patching: Patch changes slot occupancies, never
	// the stage/frame skeleton the summary describes.
	trafficOnce sync.Once
	traffic     []runtime.StageTraffic
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

// buildPlanSchedule is the plan-driven front-end: the dynamic stage
// structure annotated with the plan's exact per-frame submessage counts
// (the submessages of the stage-d frame this rank sends to a neighbor are
// exactly the final contents of the corresponding forward buffer). Empty
// frames keep their slots — receive counts stay deterministic — with
// Reserve left 0.
func buildPlanSchedule(p *Plan, me int) *StageSchedule {
	t := p.Topo
	sched := buildTopologySchedule(t, me)
	for d, stage := range p.Stages {
		if d >= len(sched.Stages) {
			break
		}
		for _, f := range stage {
			if f.From != me {
				continue
			}
			for i := range sched.Stages[d].Sends {
				if sched.Stages[d].Sends[i].To == f.To {
					sched.Stages[d].Sends[i].Reserve = f.Subs
					break
				}
			}
		}
	}
	return sched
}

// scheduleFor returns the cached per-rank schedule of the plan, building it
// on first use. Plans are shared by every rank of a world, so the cache is
// guarded: each rank pays the schedule construction once per plan instead
// of once per Exchange call.
func (p *Plan) scheduleFor(me int) *StageSchedule {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	if p.schedCache == nil {
		p.schedCache = make(map[int]*StageSchedule)
	}
	if s, ok := p.schedCache[me]; ok {
		return s
	}
	s := buildPlanSchedule(p, me)
	p.schedCache[me] = s
	return s
}

// buildDirectSchedule is the single-stage baseline schedule: one frame per
// destination (send order = ascending rank) and one expected frame per
// source.
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
	return &StageSchedule{Stages: []ScheduleStage{st}}
}

// validateSchedule sanity-checks a schedule against a world size.
func validateSchedule(sched *StageSchedule, me, size int) error {
	for d := range sched.Stages {
		st := &sched.Stages[d]
		for _, s := range st.Sends {
			if s.To < 0 || s.To >= size || s.To == me {
				return fmt.Errorf("core: schedule stage %d: send slot to %d invalid for rank %d of %d", d, s.To, me, size)
			}
		}
		for _, f := range st.RecvFrom {
			if f < 0 || f >= size || f == me {
				return fmt.Errorf("core: schedule stage %d: recv slot from %d invalid for rank %d of %d", d, f, me, size)
			}
		}
	}
	return nil
}

// schedCacheState is embedded in Plan (see plan.go fields) — declared here
// to keep every schedule front-end in one file.
type schedCacheState struct {
	schedMu    sync.Mutex
	schedCache map[int]*StageSchedule
}
