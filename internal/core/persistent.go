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
// The learning run is the dynamic schedule front-end of the stage machine
// with a recorder attached; Exchange is the same run with the record
// dropped. Every replay runs the compiled tier (see Schedule and Replay):
// Run lowers the learned schedule into a byte Replay on first use, and
// Compile lowers it into a word Replay that gathers float64s. Either way the learned destinations
// and payload lengths are the contract a replay is held to.
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
	// submessages, and deliveries). Every replay holds these sizes.
	sizes map[slotKey]int
	// inLayout[d][j] lists the slots of the frame received from the j-th
	// dimension-d neighbor (inFrom[d][j]), in wire order. The lowering
	// turns it into the per-slot sub-header checks and offset copies of
	// every replay.
	inLayout [][][]slotKey
	// inFrom[d] lists the dimension-d neighbors in the order the learning
	// run routed their frames: the schedule's sender order.
	inFrom [][]int
	// sched is the learned StageSchedule, built lazily from the recorded
	// pattern; every lowering reads it.
	sched *StageSchedule
	// rp is Run's byte replay, lowered on the first Run. Patch clears
	// lowered, and the next Run lowers the patched pattern into the same
	// Replay, reusing its capacity.
	rp      *Replay
	lowered bool
	// out is what every Run returns: the deliveries over rp's arena,
	// rebuilt with each lowering.
	out *Delivered
	// tele, when set, is handed to rp: a Run it samples records the
	// replay's gather, forward and deliver spans.
	tele *telemetry.Rank
}

// Instrument attaches a live telemetry collector: every Run counts its
// forwarded submessages, and a Run it samples (see telemetry.SampleEvery)
// records a gather span, then a forward and a deliver span per stage, as
// Replay.Instrument does. A nil collector detaches.
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
// replay the same pattern. The learning run is the dynamic router with
// recording hooks; Exchange is the same run with the record dropped. It
// injects this rank's payloads in sorted destination order, and the stage
// machine routes each stage's frames in the schedule's sender order,
// whatever order they arrived in: inFrom and every slot list are recorded
// in the order submessages are scattered, so fixing that order is what
// makes two learning runs of one pattern record the same layout whatever
// the transport's timing. It is collective: every
// rank of the communicator must call it with the same topology.
func NewPersistent(c runtime.Comm, t *vpt.Topology, payloads map[int][]byte) (*Persistent, *Delivered, error) {
	p := &Persistent{topo: t, rank: c.Rank()}
	out, err := route(c, t, payloads, p)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range out.Subs {
		p.deliver = append(p.deliver, slotKey{src: int32(s.Src), dst: int32(s.Dst)})
	}
	return p, out, nil
}

// route is the learning run, Algorithm 1 on one rank. When p is non-nil
// it records the pattern into p as it goes; Exchange passes nil, and the
// run is the same but for the record.
func route(c runtime.Comm, t *vpt.Topology, payloads map[int][]byte, p *Persistent) (*Delivered, error) {
	me := c.Rank()
	if t.Size() != c.Size() {
		return nil, fmt.Errorf("core: topology size %d != communicator size %d", t.Size(), c.Size())
	}
	dests := make([]int, 0, len(payloads))
	for dst := range payloads {
		dests = append(dests, dst)
	}
	sort.Ints(dests)
	if p != nil {
		p.dests = make(map[int]struct{}, len(dests))
		p.destList = dests
		p.sizes = make(map[slotKey]int, len(dests))
		p.inLayout = make([][][]slotKey, t.N())
		p.inFrom = make([][]int, t.N())
		for _, dst := range dests {
			p.dests[dst] = struct{}{}
			p.sizes[slotKey{src: int32(me), dst: int32(dst)}] = len(payloads[dst])
		}
		p.indexNeighborFrames()
	}

	// Lines 4-6 of Algorithm 1: scatter my send list into the forward
	// buffers, keyed by the first differing digit.
	fb := msg.NewForwardBuffers(t.Dims())
	out := &Delivered{}
	for _, dst := range dests {
		data := payloads[dst]
		if dst < 0 || dst >= t.Size() {
			return nil, fmt.Errorf("core: rank %d: destination %d out of range", me, dst)
		}
		if dst == me {
			out.Subs = append(out.Subs, msg.Submessage{Src: me, Dst: me, Data: data})
			continue
		}
		d := t.FirstDiff(me, dst)
		fb.Put(d, t.Digit(dst, d), msg.Submessage{Src: me, Dst: dst, Data: data})
	}

	sm := &stageMachine{
		sched: buildTopologySchedule(t, me),
		// Lines 9-12: each outbound frame drains the forward buffer keyed by
		// the destination's dimension-d digit.
		outSubs: func(d, j int, slot SendSlot) ([]msg.Submessage, error) {
			subs := fb.Take(d, t.Digit(slot.To, d))
			if p != nil && len(subs) > 0 {
				f := &pFrame{slots: make([]slotKey, len(subs))}
				for i, s := range subs {
					f.slots[i] = slotKey{src: int32(s.Src), dst: int32(s.Dst)}
				}
				p.nbrFrames[d][j].f = f
			}
			return subs, nil
		},
		// Lines 13-17: scatter received submessages into later-stage buffers
		// or deliver them.
		onFrame: func(d, from int, subs []msg.Submessage) error {
			if p != nil {
				inSlots := make([]slotKey, len(subs))
				for i, sub := range subs {
					k := slotKey{src: int32(sub.Src), dst: int32(sub.Dst)}
					inSlots[i] = k
					p.sizes[k] = len(sub.Data)
				}
				p.inFrom[d] = append(p.inFrom[d], from)
				p.inLayout[d] = append(p.inLayout[d], inSlots)
			}
			return scatterFrame(t, me, d, fb, out, subs)
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
		return nil, err
	}
	return out, nil
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

// Schedule returns the learned StageSchedule — the IR every replay lowers.
// Send slots follow the learning send order with the learned frame
// occupancy; the inbound sender sets are the learning run's. The schedule
// is cached inside the Persistent and must be treated as read-only.
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

// Run replays the learned pattern with new payload bytes. The learned
// destinations and payload lengths are the contract: payloads must map
// exactly the learned destinations, each to a payload of its learned
// length. A breach is an error naming the destination (and, for a length,
// the learned and the given one), but it is not returned before the
// exchange: the rank still walks every stage, sending poison frames and
// draining its receives, so every rank returns an error and none is left
// waiting. Run is collective: every rank of the original world must call
// it the same number of times. Telemetry comes from Instrument.
//
// The returned Delivered is owned by the Persistent: every Run overwrites
// its payload bytes in place, and the first Run after a Patch replaces it.
// A caller that keeps deliveries across Runs copies them.
//
// Run is a thin entry over Replay.RunSum's loop: the first Run lowers the
// learned schedule into a byte Replay, which copies the caller's payloads
// whole into frames written in place, checks every inbound sub-header
// against its learned slot, and copies each delivered payload once, out of
// its inbound frame into the Delivered's arena. A steady-state Run
// allocates nothing.
func (p *Persistent) Run(c runtime.Comm, payloads map[int][]byte) (*Delivered, error) {
	if c.Rank() != p.rank || c.Size() != p.topo.Size() {
		return nil, fmt.Errorf("core: persistent exchange bound to rank %d of %d", p.rank, p.topo.Size())
	}
	r, err := p.replay()
	if err != nil {
		return nil, err
	}
	if err := r.run(c, nil, nil, nil, p.bind(r, payloads)); err != nil {
		return nil, err
	}
	return p.out, nil
}

// replay returns Run's byte replay, lowering the learned pattern into it on
// the first Run and on the first Run after a Patch. Each lowering also
// builds the Delivered every Run until the next one returns: one
// submessage per learned delivery, over one new arena.
func (p *Persistent) replay() (*Replay, error) {
	if p.rp == nil {
		p.rp = &Replay{}
	}
	r := p.rp
	if !p.lowered {
		if err := p.lower(r, true, 0, nil); err != nil {
			return nil, err
		}
		r.arena = make([]byte, r.haloBytes)
		p.out = &Delivered{Subs: make([]msg.Submessage, len(r.delivs))}
		for i, s := range r.delivs {
			end := s.off + s.n
			p.out.Subs[i] = msg.Submessage{Src: int(s.k.src), Dst: int(s.k.dst), Data: r.arena[s.off:end:end]}
		}
		p.lowered = true
	}
	r.tele = p.tele
	return r, nil
}

// bind holds payloads to the learned contract and binds them to r.pays in
// destination order. It returns the first breach: a destination count or a
// destination outside the learned set, or a length other than the learned
// one.
func (p *Persistent) bind(r *Replay, payloads map[int][]byte) error {
	if len(payloads) != len(r.sends) {
		return fmt.Errorf("core: rank %d: persistent pattern has %d destinations, got %d", p.rank, len(r.sends), len(payloads))
	}
	for i, s := range r.sends {
		data, ok := payloads[int(s.k.dst)]
		if !ok {
			return p.strayDestination(payloads)
		}
		if len(data) != int(s.n) {
			return fmt.Errorf("core: rank %d: destination %d: learned payload length %d, got %d bytes",
				p.rank, s.k.dst, s.n, len(data))
		}
		r.pays[i] = data
	}
	return nil
}

// strayDestination names a payload destination outside the learned set.
// bind calls it on finding a learned destination missing from a payload
// map of the learned size, so such a destination exists.
func (p *Persistent) strayDestination(payloads map[int][]byte) error {
	for dst := range payloads {
		if _, ok := p.dests[dst]; !ok {
			return fmt.Errorf("core: rank %d: destination %d not in the learned pattern", p.rank, dst)
		}
	}
	return fmt.Errorf("core: rank %d: payloads do not cover the learned destinations %v", p.rank, p.destList)
}

// Destinations returns the learned destination set, sorted. The returned
// slice is cached inside the Persistent and must be treated as read-only.
func (p *Persistent) Destinations() []int { return p.destList }
