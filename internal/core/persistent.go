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
// replays byte payloads of possibly varying sizes, finding every slot's
// bytes by position in the learned layout; Compile lowers the learned
// schedule further into a Replay whose iteration is fully indexed down to
// byte offsets (fixed sizes, no steady-state allocation).
//
// A Persistent is owned by one rank and is not safe for concurrent use.
type Persistent struct {
	topo *vpt.Topology
	rank int
	// nbrFrames[d][j] pairs the j-th dimension-d neighbor — the schedule's
	// send index, neighbor-digit order — with the nonempty frame sent to it,
	// nil when the frame to that neighbor is empty. The learning run records
	// each frame at its slot; Patch mutates the slot lists in place when the
	// pattern changes.
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
	// sched is the learned StageSchedule, built lazily from the recorded
	// pattern and executed by every Run.
	sched *StageSchedule
	// traffic caches the learned transport hint (Traffic): the schedule
	// skeleton's frame counts with exact learned wire bytes. Patch resets
	// it, since slot surgery changes the byte sizes.
	traffic []runtime.StageTraffic
	// pos is Run's positional view of the learned layout (slotSources),
	// derived on the first Run. Patch resets it with sched and traffic.
	pos *slotTable
	// sm is Run's stage machine, built on the first Run and reused with its
	// per-run scratch by every later one.
	sm *stageMachine
	// out is the running Run's result, filled by the machine's finish hook.
	out *Delivered
	// tele, when set, records one stage-scoped span per Run stage on the
	// Runs it samples (telemetry.Rank.Sample).
	tele *telemetry.Rank
}

// slotTable says where Run finds every byte it sends or delivers. Sources
// are indices into data: first the caller's payloads in destList order,
// then every inbound slot in stage, learning-receive and wire order.
type slotTable struct {
	// data holds the current Run's bytes by source index. Its inbound
	// entries alias retained frames, so Run clears it before returning.
	data [][]byte
	// inBase[d][j] is the source index of slot 0 of the frame received from
	// inFrom[d][j]; its slot i lands at inBase[d][j]+i.
	inBase [][]int32
	// out[d][j][i] is the source of slot i of the stage-d frame to
	// nbrFrames[d][j]; nil for an empty frame.
	out [][][]int32
	// deliver[i] is the source of delivery p.deliver[i].
	deliver []int32
	// subs is the outbound submessage scratch, as long as the largest
	// learned frame. Run sends inline, so one frame is encoded before the
	// next one fills it.
	subs []msg.Submessage
}

// Instrument attaches a live telemetry collector: a Run it samples records
// one span per communication stage (see telemetry.SampleEvery). A nil
// collector detaches.
func (p *Persistent) Instrument(t *telemetry.Rank) { p.tele = t }

type slotKey struct{ src, dst int32 }

type pFrame struct {
	slots []slotKey
}

type nbrFrame struct {
	to int
	f  *pFrame // nil: send an empty frame to keep receive counts deterministic
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
	p.indexNeighborFrames()

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
		outSubs: func(d, j int, slot SendSlot) ([]msg.Submessage, error) {
			subs := fb.Take(d, t.Digit(slot.To, d))
			if len(subs) > 0 {
				f := &pFrame{slots: make([]slotKey, len(subs))}
				for i, s := range subs {
					f.slots[i] = slotKey{src: int32(s.Src), dst: int32(s.Dst)}
				}
				p.nbrFrames[d][j].f = f
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
	return p, out, nil
}

// indexNeighborFrames builds nbrFrames' skeleton: per stage, every
// dimension-d neighbor in digit order — the learning schedule's send order
// (buildTopologySchedule) — with no frame yet. The learning run then
// records each nonempty frame at its send index.
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
			row = append(row, nbrFrame{to: t.WithDigit(me, d, x)})
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
	if j := p.inFrameIndex(d, from); j >= 0 {
		return p.inLayout[d][j], true
	}
	return nil, false
}

// Run replays the learned pattern with new payload bytes. The destination
// set must equal the learning run's exactly (payload sizes may differ); a
// set that differs fails before anything is sent. It is collective: every
// rank of the original world must call Run the same number of times. For
// fixed payload sizes, the compiled Replay (see Compile) iterates strictly
// faster. Telemetry comes from Instrument.
//
// Run is the learned-schedule front-end of the stage machine, and replays
// by position, not by key: where every outbound slot and every delivery
// gets its bytes — the caller's payload for a destination, or slot i of the
// frame received from some neighbor in an earlier stage — is derived once
// from the learned layout (slotSources), so a replay consults no map past
// the caller's payloads. Sends go out inline through pooled frame buffers,
// and inbound frames are served in arrival order. Every inbound submessage
// is validated against the learned slot layout of its frame; a frame whose
// slots deviate from the pattern is rejected rather than silently recorded.
// A steady-state Run allocates only what it returns: the Delivered, its
// Subs, and the one arena CompactSubs copies the payloads into.
func (p *Persistent) Run(c runtime.Comm, payloads map[int][]byte) (*Delivered, error) {
	me := p.rank
	if c.Rank() != me || c.Size() != p.topo.Size() {
		return nil, fmt.Errorf("core: persistent exchange bound to rank %d of %d", me, p.topo.Size())
	}
	if len(payloads) != len(p.dests) {
		return nil, fmt.Errorf("core: persistent pattern has %d destinations, got %d", len(p.dests), len(payloads))
	}
	pos, err := p.slotSources()
	if err != nil {
		return nil, err
	}
	// Inbound entries alias frames the machine recycles as it returns; clear
	// the table so none of them outlives this call.
	defer pos.release()
	for i, dst := range p.destList {
		data, ok := payloads[dst]
		if !ok {
			return nil, p.strayDestination(payloads)
		}
		pos.data[i] = data
	}
	if err := p.replayMachine().run(c, me); err != nil {
		return nil, err
	}
	out := p.out
	p.out = nil
	return out, nil
}

// strayDestination names a payload destination outside the learned set.
// Run calls it on finding a learned destination missing from a payload map
// of the learned size, so such a destination exists.
func (p *Persistent) strayDestination(payloads map[int][]byte) error {
	for dst := range payloads {
		if _, ok := p.dests[dst]; !ok {
			return fmt.Errorf("core: destination %d not in the learned pattern", dst)
		}
	}
	return fmt.Errorf("core: payloads do not cover the learned destinations %v", p.destList)
}

// slotSources returns Run's position table, deriving it from the learned
// layout on first use. The derivation walks the stages in order the way a
// replay moves bytes: a stage's outbound slots draw on the caller's
// payloads and the slots received in earlier stages, each source used at
// most once; then the stage's inbound slots become available. Deliveries
// draw on whatever is left. A learned slot with no source fails here,
// before anything is sent.
func (p *Persistent) slotSources() (*slotTable, error) {
	if p.pos != nil {
		return p.pos, nil
	}
	me := p.rank
	avail := make(map[slotKey]int32, len(p.sizes))
	for i, dst := range p.destList {
		avail[slotKey{src: int32(me), dst: int32(dst)}] = int32(i)
	}
	next := int32(len(p.destList))
	tab := &slotTable{inBase: make([][]int32, len(p.nbrFrames)), out: make([][][]int32, len(p.nbrFrames))}
	widest := 0
	for d := range p.nbrFrames {
		tab.out[d] = make([][]int32, len(p.nbrFrames[d]))
		for j, nf := range p.nbrFrames[d] {
			if nf.f == nil {
				continue
			}
			src := make([]int32, len(nf.f.slots))
			for i, k := range nf.f.slots {
				s, ok := avail[k]
				if !ok {
					return nil, fmt.Errorf("core: rank %d stage %d: missing payload %d->%d for learned slot",
						me, d, k.src, k.dst)
				}
				delete(avail, k)
				src[i] = s
			}
			tab.out[d][j] = src
			widest = max(widest, len(src))
		}
		tab.inBase[d] = make([]int32, len(p.inLayout[d]))
		for j, slots := range p.inLayout[d] {
			tab.inBase[d][j] = next
			for _, k := range slots {
				avail[k] = next
				next++
			}
		}
	}
	tab.deliver = make([]int32, len(p.deliver))
	for i, k := range p.deliver {
		s, ok := avail[k]
		if !ok {
			return nil, fmt.Errorf("core: rank %d: learned delivery %d->%d did not arrive", me, k.src, k.dst)
		}
		tab.deliver[i] = s
	}
	tab.data = make([][]byte, next)
	tab.subs = make([]msg.Submessage, widest)
	p.pos = tab
	return tab, nil
}

// release drops every slice the finished Run left in the table.
func (tab *slotTable) release() {
	clear(tab.data)
	clear(tab.subs)
}

// replayMachine returns Run's stage machine, building it on the first Run
// with hooks that move bytes by position through p.pos. The schedule, the
// traffic hint and the collector are re-read every call: Patch and
// Instrument replace them.
func (p *Persistent) replayMachine() *stageMachine {
	if p.sm == nil {
		p.sm = &stageMachine{
			// A replay's frames are precomputed slot fills — too cheap to be
			// worth a worker handoff per stage — so issue the pooled sends
			// inline and keep the pipelining on the receive side.
			inlineSend: true,
			outSubs:    p.replaySubs,
			onFrame:    p.replayFrame,
			finish:     p.replayFinish,
		}
	}
	p.sm.sched, p.sm.traffic, p.sm.tele = p.Schedule(), p.Traffic(), p.tele
	return p.sm
}

// replaySubs fills the learned slot list of the j-th stage-d frame from its
// sources.
func (p *Persistent) replaySubs(d, j int, _ SendSlot) ([]msg.Submessage, error) {
	nf := &p.nbrFrames[d][j]
	if nf.f == nil {
		return nil, nil
	}
	src := p.pos.out[d][j]
	subs := p.pos.subs[:len(src)]
	for i, k := range nf.f.slots {
		subs[i] = msg.Submessage{Src: int(k.src), Dst: int(k.dst), Data: p.pos.data[src[i]]}
	}
	return subs, nil
}

// replayFrame records an inbound frame's submessages by position, but only
// after checking each against the learned wire layout: a replayed pattern
// is a contract, and a frame that deviates from it is a routing fault, not
// new data.
func (p *Persistent) replayFrame(d, from int, subs []msg.Submessage) (int, error) {
	me := p.rank
	j := p.inFrameIndex(d, from)
	if j < 0 {
		return 0, fmt.Errorf("core: rank %d stage %d: frame from %d not in the learned pattern", me, d, from)
	}
	slots := p.inLayout[d][j]
	if len(subs) != len(slots) {
		return 0, fmt.Errorf("core: rank %d stage %d: frame from %d carries %d submessages, learned layout has %d",
			me, d, from, len(subs), len(slots))
	}
	data := p.pos.data[p.pos.inBase[d][j]:][:len(slots)]
	delivered := 0
	for i, sub := range subs {
		if k := (slotKey{src: int32(sub.Src), dst: int32(sub.Dst)}); k != slots[i] {
			return 0, fmt.Errorf("core: rank %d stage %d: misrouted submessage %d->%d in frame from %d (learned slot %d->%d)",
				me, d, sub.Src, sub.Dst, from, slots[i].src, slots[i].dst)
		}
		data[i] = sub.Data
		if sub.Dst == me {
			delivered += len(sub.Data)
		}
	}
	return delivered, nil
}

// replayFinish copies the learned deliveries out of the table into Run's
// result while the frames they alias are still retained.
func (p *Persistent) replayFinish() error {
	out := &Delivered{Subs: make([]msg.Submessage, len(p.deliver))}
	for i, k := range p.deliver {
		out.Subs[i] = msg.Submessage{Src: int(k.src), Dst: int(k.dst), Data: p.pos.data[p.pos.deliver[i]]}
	}
	msg.CompactSubs(out.Subs)
	p.out = out
	return nil
}

// Destinations returns the learned destination set, sorted. The returned
// slice is cached inside the Persistent and must be treated as read-only.
func (p *Persistent) Destinations() []int { return p.destList }
