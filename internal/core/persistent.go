package core

import (
	"fmt"
	"slices"
	"sort"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/vpt"
)

// Persistent is a reusable store-and-forward exchange for a *fixed*
// communication pattern — the iterative case, where the same SpMV exchange
// repeats every iteration, as in MPI's persistent neighborhood collectives.
// It holds, per stage, the exact frame layout this rank sends and receives:
// which neighbors exchange a frame and, inside each, the (src, dst) slots
// in ascending order with their payload sizes. NewPersistent records it in
// a learning run (Algorithm 1 with a recorder; Exchange is the same run
// with the record dropped); ComputePersistent builds the same layout from
// the global pattern without communicating. Every replay runs the compiled
// tier (see Schedule and Replay): Run lowers the layout into a byte Replay
// on first use, Compile into a word Replay that gathers float64s. Either
// way the layout's destinations and payload lengths are the contract a
// replay is held to.
//
// A Persistent is owned by one rank and is not safe for concurrent use.
type Persistent struct {
	topo *vpt.Topology
	rank int
	// nbrFrames[d][j] pairs the j-th dimension-d neighbor — the schedule's
	// send and receive index, neighbor-digit order — with the nonempty frame
	// sent to it, nil when the frame to that neighbor is empty. The learning
	// run records each frame at its slot; Patch mutates the slot lists in
	// place when the pattern changes.
	nbrFrames [][]nbrFrame
	// deliver lists the (src, dst) ranks whose payloads end up at this
	// rank, in the order Exchange returns them (sorted by src, then dst).
	deliver []slotKey
	// dests is the set of destinations the pattern was learned with; replay
	// payloads must match it exactly. destList is the same set sorted,
	// cached for Destinations.
	dests    map[int]struct{}
	destList []int
	// sizes records the payload byte length of every slot that passes
	// through this rank (own sends, forwarded submessages, and deliveries).
	// Every replay holds these sizes.
	sizes map[slotKey]int
	// inLayout[d][j] lists the slots of the frame received from the j-th
	// dimension-d neighbor (nbrFrames[d][j].to), in wire order: ascending
	// (src, dst), nil for an empty frame. The lowering turns it into the
	// per-slot sub-header checks and offset copies of every replay.
	inLayout [][][]slotKey
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

// list returns the frame's slots, nil for the empty frame.
func (f *pFrame) list() []slotKey {
	if f == nil {
		return nil
	}
	return f.slots
}

type nbrFrame struct {
	to int
	f  *pFrame // nil: send an empty frame to keep receive counts deterministic
}

// NewPersistent performs the learning run: it executes the exchange for
// payloads and returns the deliveries along with a Persistent that can
// replay the same pattern. The run routes frames as they land (route),
// and every frame goes on the wire with its slots in ascending (src, dst)
// order; the recorder keeps each outbound layout at its send slot and each
// inbound one at its sender's neighbor index. So every learning run of one
// pattern records the same layout whatever the transport's timing, the one
// ComputePersistent builds and Patch keeps. It is collective: every rank of
// the communicator must call it with the same topology.
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

// ComputePersistent builds rank me's Persistent from the global pattern
// with no communication: the layout a learning run of that pattern records,
// slot for slot, so a world may mix computed and learned ranks. size
// reports whether src sends dst a payload and its byte length; it is asked
// only about the (n+1)·K pairs whose dimension-ordered route can pass me —
// for some d, src agrees with me on every digit from d up and dst on every
// digit below d. Each such pair's route is walked with routeHops (the walk
// Patch uses), its slot appended to every frame of me's it occupies, and
// every frame sorted by (src, dst) once.
func ComputePersistent(t *vpt.Topology, me int, size func(src, dst int) (int, bool)) (*Persistent, error) {
	K, n := t.Size(), t.N()
	if me < 0 || me >= K {
		return nil, fmt.Errorf("core: rank %d outside a %d-rank topology", me, K)
	}
	p := &Persistent{topo: t, rank: me, dests: map[int]struct{}{}, sizes: map[slotKey]int{}}
	p.indexNeighborFrames()
	for d := 0; d <= n; d++ {
		// me is the rank between stages d-1 and d of the pair's route: src
		// keeps me's digits from d up, dst me's digits below d. A src that
		// also keeps me's digit d-1 was met at stage d-1 already.
		low := K
		if d < n {
			low = t.Stride(d)
		}
		for src := me - me%low; src < me-me%low+low; src++ {
			if d > 0 && t.Digit(src, d-1) == t.Digit(me, d-1) {
				continue
			}
			for dst := me % low; dst < K; dst += low {
				bytes, ok := size(src, dst)
				if !ok {
					continue
				}
				if bytes < 0 {
					return nil, fmt.Errorf("core: pair %d->%d has negative size %d", src, dst, bytes)
				}
				k := slotKey{src: int32(src), dst: int32(dst)}
				h, _ := routeHops(t, me, src, dst)
				p.sizes[k] = bytes
				if h.origin {
					p.dests[dst] = struct{}{}
					p.destList = append(p.destList, dst)
				}
				if h.deliver {
					p.deliver = append(p.deliver, k)
				}
				if h.sendD >= 0 {
					nf := &p.nbrFrames[h.sendD][p.nbrIndex(h.sendD, h.sendTo)]
					if nf.f == nil {
						nf.f = &pFrame{}
					}
					nf.f.slots = append(nf.f.slots, k)
				}
				if h.recvD >= 0 {
					in := &p.inLayout[h.recvD][p.nbrIndex(h.recvD, h.recvFrom)]
					*in = append(*in, k)
				}
			}
		}
	}
	// Stage 0 met every own pair, dst ascending, so destList is sorted.
	slices.SortFunc(p.deliver, cmpSlot)
	for d := range p.nbrFrames {
		for j, nf := range p.nbrFrames[d] {
			if nf.f != nil {
				slices.SortFunc(nf.f.slots, cmpSlot)
			}
			slices.SortFunc(p.inLayout[d][j], cmpSlot)
		}
	}
	if err := validateSchedule(p.Schedule(), me, K); err != nil {
		return nil, err
	}
	return p, nil
}

// route is the learning run, Algorithm 1 on one rank, and the one loop
// that routes frames as they land. When p is non-nil it records the
// pattern into p as it goes; Exchange passes nil, and the run is the same
// but for the record. Replaying a learned pattern does not come here: that
// is the compiled Replay's loop.
//
// Stage d sends one frame to every dimension-d neighbor (empty when nothing
// routes through it, so receive counts are deterministic) and receives one
// from each. Every frame is encoded into a pooled buffer by the send
// worker, which drains a FIFO of stage batches, and inbound frames are
// retained until the exchange ends — the submessages scattered from them
// alias them — then recycled after the deliveries are copied out. A stage's
// frames are received in arrival order (runtime.RecvPolicy over RecvAnyOf),
// each decoded, misroute-checked and scattered as it lands; a frame from a
// rank outside the stage's RecvFrom set, or a second frame from one inside
// it, is an error. The order frames land in reaches no wire byte: what a
// stage leaves in the forward buffers is a set, and every frame goes on the
// wire with its submessages in ascending (src, dst) order, so every learned
// layout is independent of the transport's timing.
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

	// Stage d's j-th send slot and j-th expected sender are both the j-th
	// dimension-d neighbor in digit order, the index the record keeps.
	sched := buildTopologySchedule(t, me)
	runtime.HintTraffic(c, sched.Traffic())
	sends, recvs, width := 0, 0, 0
	for i := range sched.Stages {
		st := &sched.Stages[i]
		sends += len(st.Sends)
		recvs += len(st.RecvFrom)
		width = max(width, len(st.RecvFrom))
	}
	retained := make([][]byte, 0, recvs)
	defer func() {
		for _, b := range retained {
			msg.PutFrame(b)
		}
	}()
	// decoded is the DecodeInto scratch; landed[j] marks the stage's j-th
	// expected sender's frame as received. Both are reused stage after
	// stage.
	var decoded msg.Message
	landed := make([]bool, width)
	var pol runtime.RecvPolicy
	frameArr := make([]stageFrame, 0, sends) // backing array for all stages' batches
	sw := startSendWorker(c, me, len(sched.Stages))
	defer sw.join()

	for d := range sched.Stages {
		st := &sched.Stages[d]

		// Lines 9-12: each outbound frame drains the forward buffer keyed by
		// the destination's dimension-d digit. The buffer holds the
		// submessages in the order their frames landed; sorting them fixes
		// the wire layout. The stage's frames go to the worker as one batch
		// (which owns its subslice from then on; stages use disjoint regions
		// of the shared backing array), overlapped with the receives below.
		outs := frameArr[len(frameArr) : len(frameArr) : len(frameArr)+len(st.Sends)]
		for j, slot := range st.Sends {
			subs := fb.Take(d, t.Digit(slot.To, d))
			msg.SortSubs(subs)
			if p != nil && len(subs) > 0 {
				p.nbrFrames[d][j].f = &pFrame{slots: slotsOf(subs)}
			}
			outs = append(outs, stageFrame{to: slot.To, subs: subs})
		}
		frameArr = frameArr[:len(frameArr)+len(outs)]
		sw.enqueue(st.Tag, outs)

		// Lines 13-17: receive one frame per expected sender, whichever
		// lands first, and scatter its submessages into later-stage buffers
		// or deliver them. The sender comes from the matcher, never from
		// loop position, so the misroute check is valid under any delivery
		// order; RecvFrom is ascending, so the sender's index is a binary
		// search away.
		pol.Reset(st.RecvFrom)
		landed = landed[:len(st.RecvFrom)]
		clear(landed)
		for pol.Outstanding() > 0 {
			from, raw, err := pol.Next(c, st.Tag)
			if err != nil {
				return nil, recvFault(me, d, st.Dim, st.RecvFrom, func(j int) bool { return landed[j] }, err)
			}
			retained = append(retained, raw)
			j, ok := slices.BinarySearch(st.RecvFrom, from)
			if !ok || landed[j] {
				return nil, fmt.Errorf("core: rank %d stage %d: frame from unexpected sender %d", me, d, from)
			}
			landed[j] = true
			if err := msg.DecodeInto(&decoded, raw); err != nil {
				return nil, fmt.Errorf("core: rank %d stage %d frame from %d: %w", me, d, from, err)
			}
			if decoded.From != from || decoded.To != me {
				return nil, fmt.Errorf("core: rank %d stage %d: misrouted frame %d->%d arrived from %d",
					me, d, decoded.From, decoded.To, from)
			}
			if p != nil && len(decoded.Subs) > 0 {
				in := slotsOf(decoded.Subs)
				for i, sub := range decoded.Subs {
					p.sizes[in[i]] = len(sub.Data)
				}
				p.inLayout[d][j] = in
			}
			if err := scatterFrame(t, me, d, fb, out, decoded.Subs); err != nil {
				return nil, err
			}
		}
	}
	if err := sw.join(); err != nil {
		return nil, err
	}
	if left := fb.SubCount(); left != 0 {
		return nil, fmt.Errorf("core: rank %d: %d submessages left undelivered", me, left)
	}
	// Deliveries alias the retained frames, which the deferred recycle
	// reuses: copy them out first.
	msg.SortSubs(out.Subs)
	msg.CompactSubs(out.Subs)
	return out, nil
}

// slotsOf returns the (src, dst) slots of a frame's submessages in wire
// order.
func slotsOf(subs []msg.Submessage) []slotKey {
	slots := make([]slotKey, len(subs))
	for i, s := range subs {
		slots[i] = slotKey{src: int32(s.Src), dst: int32(s.Dst)}
	}
	return slots
}

// indexNeighborFrames builds the skeleton of nbrFrames and inLayout: per
// stage, every dimension-d neighbor in digit order — the learning
// schedule's send and receive order (buildTopologySchedule) — with no frame
// yet. The learning run then records each nonempty frame at its neighbor
// index.
func (p *Persistent) indexNeighborFrames() {
	t := p.topo
	me := p.rank
	p.nbrFrames = make([][]nbrFrame, t.N())
	p.inLayout = make([][][]slotKey, t.N())
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
		p.inLayout[d] = make([][]slotKey, len(row))
	}
}

// nbrIndex returns the index into nbrFrames[d] and inLayout[d] of the
// dimension-d neighbor peer, or -1 when peer is not one.
func (p *Persistent) nbrIndex(d, peer int) int {
	for j := range p.nbrFrames[d] {
		if p.nbrFrames[d][j].to == peer {
			return j
		}
	}
	return -1
}

// Schedule returns the learned StageSchedule — the IR every replay lowers.
// Each stage sends to and receives from every dimension-d neighbor in
// digit order, the send slots carrying the learned frame occupancy. The
// schedule is cached inside the Persistent and must be treated as
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
		st.RecvFrom = make([]int, len(p.nbrFrames[d]))
		for j, nf := range p.nbrFrames[d] {
			reserve := 0
			if nf.f != nil {
				reserve = len(nf.f.slots)
			}
			st.Sends[j] = SendSlot{To: nf.to, Reserve: reserve}
			st.RecvFrom[j] = nf.to
		}
	}
	p.sched = sched
	return sched
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
