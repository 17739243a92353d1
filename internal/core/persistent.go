package core

import (
	"fmt"
	"sort"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/vpt"
)

// Persistent is a reusable store-and-forward exchange for a *fixed*
// communication pattern — the common case in iterative applications, where
// the same SpMV exchange repeats every iteration. The first (learning) run
// executes Algorithm 1 normally while recording, per stage, the exact frame
// layout this rank sends and receives: which neighbors exchange a frame
// and, inside each frame, the ordered (src, dst) submessage slots with
// their payload sizes. Subsequent runs replay the layout with fresh payload
// bytes, skipping all routing decisions and forward-buffer bookkeeping.
// This mirrors MPI's persistent (neighborhood) collectives.
//
// Both the learning run and the replays execute on the same stage machine
// as Exchange: learning is the dynamic schedule front-end with a recorder
// attached, and Run is the learned schedule front-end (see Schedule). Run
// replays with map-based payloads of possibly varying sizes; Compile
// lowers the learned schedule further into a Replay whose iteration is
// fully indexed (fixed sizes, no maps, no steady-state allocation).
//
// A Persistent is owned by one rank and is not safe for concurrent use.
type Persistent struct {
	topo *vpt.Topology
	rank int
	// layout[d] lists the nonempty frames of stage d in send order, as the
	// learning run recorded them. It only feeds indexNeighborFrames; after
	// that (and in particular after any Patch, which may point nbrFrames at
	// frames the learning run never saw) nbrFrames is the sole authority on
	// outbound frame contents.
	layout [][]pFrame
	// nbrFrames[d][j] pairs the j-th dimension-d neighbor (fixed learning
	// send order) with its learned nonempty frame, nil when the frame to
	// that neighbor is empty, plus a reusable submessage scratch sized to
	// the frame. Precomputed once so replays neither rebuild a per-stage
	// map nor allocate per-frame submessage slices. Patch mutates the slot
	// lists in place (and re-sizes the scratch) when the pattern changes.
	nbrFrames [][]nbrFrame
	// deliver lists the (src, dst) ranks whose payloads end up at this
	// rank, in the order Exchange returns them (sorted by src, then dst).
	deliver []slotKey
	// dests is the set of destinations the pattern was learned with; replay
	// payloads must match it exactly. destList is the same set sorted,
	// cached for Destinations.
	dests    map[int]struct{}
	destList []int
	// sizes records the payload byte length of every slot that passed
	// through this rank during the learning run (own sends, forwarded
	// submessages, and deliveries). Compile assumes these sizes hold for
	// every compiled iteration.
	sizes map[slotKey]int
	// inLayout[d][j] lists the slots of the frame received from the j-th
	// dimension-d neighbor (inFrom[d][j]), in wire order. Run validates
	// every inbound frame against it; Compile uses it to turn receives
	// into precomputed offset copies.
	inLayout [][][]slotKey
	// inFrom[d] lists the dimension-d neighbors in learning receive order.
	inFrom [][]int
	// store is the replay's payload staging table, hoisted out of Run so
	// repeated replays reuse one map (cleared, not reallocated).
	store map[slotKey][]byte
	// sched is the learned StageSchedule, built lazily from the recorded
	// pattern and executed by every Run.
	sched *StageSchedule
	// traffic caches the learned transport hint (Traffic): the schedule
	// skeleton's frame counts with exact learned wire bytes. Patch resets
	// it, since slot surgery changes the byte sizes.
	traffic []runtime.StageTraffic
	// tele, when set, records one stage-scoped span per Run stage.
	tele *telemetry.Rank
}

// Instrument attaches a live telemetry collector: Run records one span per
// communication stage. A nil collector detaches.
func (p *Persistent) Instrument(t *telemetry.Rank) { p.tele = t }

type slotKey struct{ src, dst int32 }

type pFrame struct {
	to    int
	slots []slotKey
}

type nbrFrame struct {
	to   int
	f    *pFrame          // nil: send an empty frame to keep receive counts deterministic
	subs []msg.Submessage // replay scratch, len(f.slots); nil when f is nil
}

// NewPersistent performs the learning run: it executes the exchange for
// payloads and returns the deliveries along with a Persistent that can
// replay the same pattern. The learning run is Exchange's dynamic router
// with recording hooks. It injects this rank's payloads in sorted
// destination order and receives each stage's frames in the schedule's
// fixed sender order: inFrom and every slot list are recorded in the order
// submessages are scattered, so fixing that order is what makes two
// learning runs of one pattern record the same layout whatever the
// transport's timing. It is collective, like Exchange.
func NewPersistent(c runtime.Comm, t *vpt.Topology, payloads map[int][]byte) (*Persistent, *Delivered, error) {
	me := c.Rank()
	if t.Size() != c.Size() {
		return nil, nil, fmt.Errorf("core: topology size %d != communicator size %d", t.Size(), c.Size())
	}
	p := &Persistent{
		topo:     t,
		rank:     me,
		layout:   make([][]pFrame, t.N()),
		dests:    make(map[int]struct{}, len(payloads)),
		sizes:    make(map[slotKey]int, len(payloads)),
		inLayout: make([][][]slotKey, t.N()),
		inFrom:   make([][]int, t.N()),
	}
	for dst, data := range payloads {
		p.dests[dst] = struct{}{}
		p.destList = append(p.destList, dst)
		p.sizes[slotKey{src: int32(me), dst: int32(dst)}] = len(data)
	}
	sort.Ints(p.destList)

	fb := msg.NewForwardBuffers(t.Dims())
	out := &Delivered{}
	for _, dst := range p.destList {
		data := payloads[dst]
		if dst < 0 || dst >= t.Size() {
			return nil, nil, fmt.Errorf("core: rank %d: destination %d out of range", me, dst)
		}
		if dst == me {
			out.Subs = append(out.Subs, msg.Submessage{Src: me, Dst: me, Data: data})
			continue
		}
		d := t.FirstDiff(me, dst)
		fb.Put(d, t.Digit(dst, d), msg.Submessage{Src: me, Dst: dst, Data: data})
	}

	learnSched := buildTopologySchedule(t, me)
	sm := &stageMachine{
		sched:     learnSched,
		fixedRecv: true,
		traffic:   learnSched.Traffic(),
		outSubs: func(d, _ int, slot SendSlot) ([]msg.Submessage, error) {
			subs := fb.Take(d, t.Digit(slot.To, d))
			if len(subs) > 0 {
				frame := pFrame{to: slot.To, slots: make([]slotKey, len(subs))}
				for i, s := range subs {
					frame.slots[i] = slotKey{src: int32(s.Src), dst: int32(s.Dst)}
				}
				p.layout[d] = append(p.layout[d], frame)
			}
			return subs, nil
		},
		onFrame: func(d, from int, subs []msg.Submessage) (int, error) {
			inSlots := make([]slotKey, len(subs))
			for i, sub := range subs {
				k := slotKey{src: int32(sub.Src), dst: int32(sub.Dst)}
				inSlots[i] = k
				p.sizes[k] = len(sub.Data)
			}
			p.inFrom[d] = append(p.inFrom[d], from)
			p.inLayout[d] = append(p.inLayout[d], inSlots)
			return scatterFrame(t, me, d, fb, out, subs, nil)
		},
		finish: func() error {
			if left := fb.SubCount(); left != 0 {
				return fmt.Errorf("core: rank %d: %d submessages left undelivered", me, left)
			}
			msg.SortSubs(out.Subs)
			msg.CompactSubs(out.Subs)
			return nil
		},
	}
	if err := sm.run(c, me); err != nil {
		return nil, nil, err
	}
	for _, s := range out.Subs {
		p.deliver = append(p.deliver, slotKey{src: int32(s.Src), dst: int32(s.Dst)})
	}
	p.indexNeighborFrames()
	return p, out, nil
}

// indexNeighborFrames builds nbrFrames from the learned layout: per stage,
// the fixed neighbor send order annotated with the nonempty frame sent to
// each neighbor (or nil) and a reusable submessage scratch for it. Replays
// iterate this slice instead of rebuilding a destination-keyed map — and
// fill the scratch instead of allocating — per call.
func (p *Persistent) indexNeighborFrames() {
	t := p.topo
	me := p.rank
	p.nbrFrames = make([][]nbrFrame, t.N())
	for d := 0; d < t.N(); d++ {
		myDigit := t.Digit(me, d)
		row := make([]nbrFrame, 0, t.Dim(d)-1)
		for x := 0; x < t.Dim(d); x++ {
			if x == myDigit {
				continue
			}
			nf := nbrFrame{to: t.WithDigit(me, d, x)}
			for i := range p.layout[d] {
				if p.layout[d][i].to == nf.to {
					nf.f = &p.layout[d][i]
					nf.subs = make([]msg.Submessage, len(nf.f.slots))
					break
				}
			}
			row = append(row, nf)
		}
		p.nbrFrames[d] = row
	}
}

// Schedule returns the learned StageSchedule — the IR every Run executes
// and Compile lowers. Send slots follow the learning send order with the
// learned frame occupancy; the inbound sender sets are the learning run's.
// The schedule is cached inside the Persistent and must be treated as
// read-only.
func (p *Persistent) Schedule() *StageSchedule {
	if p.sched != nil {
		return p.sched
	}
	t := p.topo
	sched := &StageSchedule{Stages: make([]ScheduleStage, t.N())}
	for d := 0; d < t.N(); d++ {
		st := &sched.Stages[d]
		st.Tag = StageTag(d)
		st.Dim = d
		st.Sends = make([]SendSlot, len(p.nbrFrames[d]))
		for j, nf := range p.nbrFrames[d] {
			reserve := 0
			if nf.f != nil {
				reserve = len(nf.f.slots)
			}
			st.Sends[j] = SendSlot{To: nf.to, Reserve: reserve}
		}
		st.RecvFrom = p.inFrom[d]
	}
	p.sched = sched
	return sched
}

// learnedInSlots returns the learned wire layout of the frame the given
// stage receives from the given sender.
func (p *Persistent) learnedInSlots(d, from int) ([]slotKey, bool) {
	for j, f := range p.inFrom[d] {
		if f == from {
			return p.inLayout[d][j], true
		}
	}
	return nil, false
}

// Run replays the learned pattern with new payload bytes. The destination
// set must equal the learning run's exactly (payload sizes may differ). It
// is collective: every rank of the original world must call Run the same
// number of times, with the same options. For fixed payload sizes, the
// compiled Replay (see Compile) iterates strictly faster.
//
// Run is the learned-schedule front-end of the stage machine: sends go out
// inline through pooled frame buffers (no per-frame copies), and inbound
// frames are served in arrival order. Every inbound submessage is
// validated against the learned slot layout of its frame; a frame whose
// slots deviate from the pattern is rejected rather than silently staged.
func (p *Persistent) Run(c runtime.Comm, payloads map[int][]byte, opts ...ExchangeOpt) (*Delivered, error) {
	var opt exchangeOptions
	for _, o := range opts {
		o(&opt)
	}
	me := p.rank
	if c.Rank() != me || c.Size() != p.topo.Size() {
		return nil, fmt.Errorf("core: persistent exchange bound to rank %d of %d", me, p.topo.Size())
	}
	if len(payloads) != len(p.dests) {
		return nil, fmt.Errorf("core: persistent pattern has %d destinations, got %d", len(p.dests), len(payloads))
	}
	for dst := range payloads {
		if _, ok := p.dests[dst]; !ok {
			return nil, fmt.Errorf("core: destination %d not in the learned pattern", dst)
		}
	}

	// store holds payload bytes by (src, dst): own payloads plus whatever
	// arrived in earlier stages. It persists across replays (cleared, not
	// reallocated) so steady-state iterations reuse its buckets.
	if p.store == nil {
		p.store = make(map[slotKey][]byte, len(payloads))
	} else {
		clear(p.store)
	}
	store := p.store
	for dst, data := range payloads {
		store[slotKey{src: int32(me), dst: int32(dst)}] = data
	}

	tele := p.tele
	if opt.tele != nil {
		tele = opt.tele
	}
	out := &Delivered{}
	sm := &stageMachine{
		sched: p.Schedule(),
		// A replay's frames are precomputed slot fills — too cheap to be
		// worth a worker handoff per stage — so issue the pooled sends
		// inline and keep the pipelining on the receive side.
		inlineSend: true,
		tele:       tele,
		traffic:    p.Traffic(),
		// Fill the learned frame's slot list from the store; slots are
		// consumed (deleted) so a payload forwarded in a later stage cannot
		// be sent twice.
		outSubs: func(d, j int, _ SendSlot) ([]msg.Submessage, error) {
			nf := &p.nbrFrames[d][j]
			if nf.f == nil {
				return nil, nil
			}
			for i, k := range nf.f.slots {
				data, ok := store[k]
				if !ok {
					return nil, fmt.Errorf("core: rank %d stage %d: missing payload %d->%d for learned slot",
						me, d, k.src, k.dst)
				}
				nf.subs[i] = msg.Submessage{Src: int(k.src), Dst: int(k.dst), Data: data}
				delete(store, k)
			}
			return nf.subs, nil
		},
		// Stage every inbound submessage, but only after checking it against
		// the learned wire layout: a replayed pattern is a contract, and a
		// frame that deviates from it is a routing fault, not new data.
		onFrame: func(d, from int, subs []msg.Submessage) (int, error) {
			slots, ok := p.learnedInSlots(d, from)
			if !ok {
				return 0, fmt.Errorf("core: rank %d stage %d: frame from %d not in the learned pattern", me, d, from)
			}
			if len(subs) != len(slots) {
				return 0, fmt.Errorf("core: rank %d stage %d: frame from %d carries %d submessages, learned layout has %d",
					me, d, from, len(subs), len(slots))
			}
			delivered := 0
			for i, sub := range subs {
				k := slotKey{src: int32(sub.Src), dst: int32(sub.Dst)}
				if k != slots[i] {
					return 0, fmt.Errorf("core: rank %d stage %d: misrouted submessage %d->%d in frame from %d (learned slot %d->%d)",
						me, d, sub.Src, sub.Dst, from, slots[i].src, slots[i].dst)
				}
				store[k] = sub.Data
				if sub.Dst == me {
					delivered += len(sub.Data)
				}
			}
			return delivered, nil
		},
		finish: func() error {
			out.Subs = make([]msg.Submessage, len(p.deliver))
			for i, k := range p.deliver {
				data, ok := store[k]
				if !ok {
					return fmt.Errorf("core: rank %d: learned delivery %d->%d did not arrive", me, k.src, k.dst)
				}
				out.Subs[i] = msg.Submessage{Src: int(k.src), Dst: int(k.dst), Data: data}
			}
			msg.CompactSubs(out.Subs)
			return nil
		},
	}
	if err := sm.run(c, me); err != nil {
		return nil, err
	}
	return out, nil
}

// Destinations returns the learned destination set, sorted. The returned
// slice is cached inside the Persistent and must be treated as read-only.
func (p *Persistent) Destinations() []int { return p.destList }
