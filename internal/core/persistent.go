package core

import (
	"cmp"
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
// Its one piece of layout state is a pair table: every (src, dst) pair
// whose dimension-ordered route passes this rank, as origin, forwarder or
// destination, with its payload byte length, sorted by (src, dst). Routes
// are fixed, so the table decides the whole layout, and derive builds it:
// per stage the frames this rank sends and receives, each listing its
// slots in ascending (src, dst) order, the deliveries and the own
// destinations. NewPersistent records the table in a learning run
// (Algorithm 1 with a recorder; Exchange is the same run with the record
// dropped); ComputePersistent computes it from the global pattern without
// communicating; Patch merges a delta into it. Every replay runs the
// compiled tier (see Schedule and Replay): Run lowers the layout into a
// byte Replay on first use, Compile into a word Replay that gathers
// float64s. Either way the table's destinations and payload lengths are
// the contract a replay is held to.
//
// A Persistent is owned by one rank and is not safe for concurrent use.
type Persistent struct {
	topo *vpt.Topology
	rank int
	// pairs is the pair table, sorted by (src, dst) (slotKey.word). Every
	// list below holds indices into it, so each slot's size is its row's.
	pairs []pairEntry
	// outs[d][j] and ins[d][j] list the rows carried by the frame sent to
	// and received from the j-th dimension-d neighbor (digit order, the
	// schedule's send and receive index), in table order, which is the
	// wire order; an empty list is an empty frame. deliver lists the rows
	// delivered to this rank, in the order Run returns them; destList the
	// destinations of the rows this rank originates, ascending. All four
	// are derived from pairs (derive) and rebuilt in place.
	outs, ins [][][]int32
	deliver   []int32
	destList  []int
	// sched is the StageSchedule, built lazily from outs; every lowering
	// reads it.
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

// word packs k so that words order as (src, dst): the pair table's order,
// and with it every frame's.
func (k slotKey) word() uint64 { return uint64(uint32(k.src))<<32 | uint64(uint32(k.dst)) }

// pairEntry is one row of the pair table: a pair and its payload bytes.
type pairEntry struct {
	k slotKey
	n int32
}

// cmpPair orders table rows by (src, dst).
func cmpPair(a, b pairEntry) int { return cmp.Compare(a.k.word(), b.k.word()) }

// findPair returns the row of k in the table and whether it is there.
func (p *Persistent) findPair(k slotKey) (int, bool) {
	return slices.BinarySearchFunc(p.pairs, k.word(), func(e pairEntry, w uint64) int { return cmp.Compare(e.k.word(), w) })
}

// ownPairs returns the rows this rank originates: its destinations,
// ascending, with their payload sizes.
func (p *Persistent) ownPairs() []pairEntry {
	lo, _ := p.findPair(slotKey{src: int32(p.rank)})
	hi, _ := p.findPair(slotKey{src: int32(p.rank) + 1})
	return p.pairs[lo:hi]
}

// NewPersistent performs the learning run: it executes the exchange for
// payloads and returns the deliveries along with a Persistent that can
// replay the same pattern. The run routes frames as they land (route),
// and every frame goes on the wire with its slots in ascending (src, dst)
// order; the recorder keeps the size of every pair the rank sends or
// receives, which is the pair table ComputePersistent computes, so every
// learning run of one pattern records the same layout whatever the
// transport's timing. It is collective: every rank of the communicator
// must call it with the same topology.
func NewPersistent(c runtime.Comm, t *vpt.Topology, payloads map[int][]byte) (*Persistent, *Delivered, error) {
	p := &Persistent{topo: t, rank: c.Rank()}
	out, err := route(c, t, payloads, p)
	if err != nil {
		return nil, nil, err
	}
	slices.SortFunc(p.pairs, cmpPair)
	p.derive()
	return p, out, nil
}

// ComputePersistent builds rank me's Persistent from the global pattern
// with no communication: the pair table a learning run of that pattern
// records, row for row, so a world may mix computed and learned ranks.
// size reports whether src sends dst a payload and its byte length; it is
// asked only about the pairs whose dimension-ordered route can pass me.
// Every src is such a source for one stage d: the lowest from which src
// keeps me's digits (d = 0 for me itself). Its routes meet me there, so
// they pass me exactly when dst has me's digits below d. Walking src, then
// dst, in ascending order fills the table in (src, dst) order: no sort.
func ComputePersistent(t *vpt.Topology, me int, size func(src, dst int) (int, bool)) (*Persistent, error) {
	K, n := t.Size(), t.N()
	if me < 0 || me >= K {
		return nil, fmt.Errorf("core: rank %d outside a %d-rank topology", me, K)
	}
	// The table is sized for every candidate pair at once (K from me
	// itself, K-K/dim(d) more per dimension d), and cut to its rows if far
	// fewer turn up.
	cand := K
	for d := 0; d < n; d++ {
		cand += K - K/t.Dim(d)
	}
	p := &Persistent{topo: t, rank: me, pairs: make([]pairEntry, 0, cand)}
	for src := 0; src < K; src++ {
		d := n
		for d > 0 && t.Digit(src, d-1) == t.Digit(me, d-1) {
			d--
		}
		low := K
		if d < n {
			low = t.Stride(d)
		}
		for dst := me % low; dst < K; dst += low {
			bytes, ok := size(src, dst)
			if !ok {
				continue
			}
			if bytes < 0 {
				return nil, fmt.Errorf("core: pair %d->%d has negative size %d", src, dst, bytes)
			}
			p.pairs = append(p.pairs, pairEntry{k: slotKey{src: int32(src), dst: int32(dst)}, n: int32(bytes)})
		}
	}
	if 2*len(p.pairs) < cap(p.pairs) {
		p.pairs = slices.Clone(p.pairs)
	}
	p.derive()
	return p, nil
}

// derive rebuilds the layout from the pair table in one walk: each row's
// route (routeHops) names the frames it occupies at this rank, and rows
// appended in table order leave every list in wire order. The lists keep
// their capacity from one derivation to the next.
func (p *Persistent) derive() {
	t, me := p.topo, p.rank
	if p.outs == nil {
		p.outs, p.ins = make([][][]int32, t.N()), make([][][]int32, t.N())
		for d := range p.outs {
			p.outs[d], p.ins[d] = make([][]int32, t.Dim(d)-1), make([][]int32, t.Dim(d)-1)
		}
	}
	for d := range p.outs {
		for j := range p.outs[d] {
			p.outs[d][j], p.ins[d][j] = p.outs[d][j][:0], p.ins[d][j][:0]
		}
	}
	p.deliver, p.destList = p.deliver[:0], p.destList[:0]
	for i, e := range p.pairs {
		h, _ := routeHops(t, me, int(e.k.src), int(e.k.dst))
		if h.origin {
			p.destList = append(p.destList, int(e.k.dst))
		}
		if h.deliver {
			p.deliver = append(p.deliver, int32(i))
		}
		if h.sendD >= 0 {
			j := p.nbrIndex(h.sendD, h.sendTo)
			p.outs[h.sendD][j] = append(p.outs[h.sendD][j], int32(i))
		}
		if h.recvD >= 0 {
			j := p.nbrIndex(h.recvD, h.recvFrom)
			p.ins[h.recvD][j] = append(p.ins[h.recvD][j], int32(i))
		}
	}
}

// nbrIndex returns the index of the dimension-d neighbor peer among this
// rank's dimension-d neighbors in digit order.
func (p *Persistent) nbrIndex(d, peer int) int {
	x := p.topo.Digit(peer, d)
	if x > p.topo.Digit(p.rank, d) {
		x--
	}
	return x
}

// route is the learning run, Algorithm 1 on one rank, and the one loop
// that routes frames as they land. When p is non-nil it appends every pair
// it sends or receives, with its size, to p's pair table (unsorted: the
// caller sorts and derives); Exchange passes nil, and the run is the same
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
		p.pairs = make([]pairEntry, 0, len(dests))
		for _, dst := range dests {
			p.pairs = append(p.pairs, pairEntry{k: slotKey{src: int32(me), dst: int32(dst)}, n: int32(len(payloads[dst]))})
		}
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

	// Stage d sends to and expects a frame from every dimension-d
	// neighbor, in digit order.
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
		for _, slot := range st.Sends {
			subs := fb.Take(d, t.Digit(slot.To, d))
			msg.SortSubs(subs)
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
			if p != nil {
				// The table keeps pairs, not frames: a pair whose route does
				// not enter here from this sender in this stage would be
				// derived into another frame than the one it came in.
				for _, sub := range decoded.Subs {
					if h, _ := routeHops(t, me, sub.Src, sub.Dst); h.recvD != d || h.recvFrom != from {
						return nil, fmt.Errorf("core: rank %d stage %d: misrouted submessage %d->%d from %d: its route does not enter here",
							me, d, sub.Src, sub.Dst, from)
					}
					p.pairs = append(p.pairs, pairEntry{k: slotKey{src: int32(sub.Src), dst: int32(sub.Dst)}, n: int32(len(sub.Data))})
				}
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

// Schedule returns the learned StageSchedule — the IR every replay lowers.
// Each stage sends to and receives from every dimension-d neighbor in
// digit order (buildTopologySchedule), the send slots carrying the
// occupancy of their frames. The schedule is cached inside the Persistent
// and must be treated as read-only.
func (p *Persistent) Schedule() *StageSchedule {
	if p.sched == nil {
		p.sched = buildTopologySchedule(p.topo, p.rank)
		for d := range p.sched.Stages {
			for j := range p.sched.Stages[d].Sends {
				p.sched.Stages[d].Sends[j].Reserve = len(p.outs[d][j])
			}
		}
	}
	return p.sched
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
		if _, ok := slices.BinarySearch(p.destList, dst); !ok {
			return fmt.Errorf("core: rank %d: destination %d not in the learned pattern", p.rank, dst)
		}
	}
	return fmt.Errorf("core: rank %d: payloads do not cover the learned destinations %v", p.rank, p.destList)
}

// Destinations returns the learned destination set, sorted. The returned
// slice is cached inside the Persistent and must be treated as read-only.
func (p *Persistent) Destinations() []int { return p.destList }
