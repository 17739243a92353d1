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
// compiled tier (see Replay): Run lowers the layout into a byte Replay on
// first use, Compile into a word Replay that gathers float64s. Either way
// the table's destinations and payload lengths are the contract a replay
// is held to.
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
	// replay stage's frame and receive index), in table order, which is
	// the wire order; an empty list is an empty frame. Every list is a
	// window of rows, one backing array for both directions. deliver lists
	// the rows delivered to this rank, in the order Run returns them;
	// destList the destinations of the rows this rank originates,
	// ascending. All of them are derived from pairs (derive) and rebuilt in
	// place.
	outs, ins [][][]int32
	rows      []int32
	deliver   []int32
	destList  []int
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
// order; its visitor records the size of every pair the rank sends or
// receives, which is the pair table ComputePersistent computes, so every
// learning run of one pattern records the same layout whatever the
// transport's timing. It is collective: every rank of the communicator
// must call it with the same topology.
func NewPersistent(c runtime.Comm, t *vpt.Topology, payloads map[int][]byte) (*Persistent, *Delivered, error) {
	p := &Persistent{topo: t, rank: c.Rank(), pairs: make([]pairEntry, 0, len(payloads))}
	out, err := route(c, t, tagBase, payloads, func(sub msg.Submessage) error {
		p.pairs = append(p.pairs, pairEntry{k: slotKey{src: int32(sub.Src), dst: int32(sub.Dst)}, n: int32(len(sub.Data))})
		return nil
	})
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

// derive rebuilds the layout from the pair table. The rank's frames are
// numbered outbound before inbound, stage by stage, in digit order
// (frameIndex). A first walk names, through each row's route (routeHops),
// the frames the row occupies and counts the rows of each frame; every
// frame's list is then a window of p.rows, and a second walk fills the
// windows in table order, which leaves every list in wire order. The
// deliveries are the rows addressed to this rank, the destinations those
// of the rows it originates. Every slice keeps its capacity from one
// derivation to the next, so a call allocates only its scratch.
func (p *Persistent) derive() {
	t, me := p.topo, p.rank
	nf := t.NumNeighbors() // frames per direction
	if p.outs == nil {
		lists := make([][]int32, 2*nf)
		p.outs, p.ins = make([][][]int32, t.N()), make([][][]int32, t.N())
		for d, a := 0, 0; d < t.N(); d++ {
			b := a + t.Dim(d) - 1
			p.outs[d], p.ins[d] = lists[a:b:b], lists[nf+a:nf+b:nf+b]
			a = b
		}
	}
	// off[f+1] counts frame f's rows, then off[f] is where its window
	// starts; at[2i] and at[2i+1] are row i's outbound and inbound frame,
	// or -1.
	scratch := make([]int32, 2*nf+1+2*len(p.pairs))
	off, at := scratch[:2*nf+1], scratch[2*nf+1:]
	ndeliver := 0
	for i, e := range p.pairs {
		h, _ := routeHops(t, me, int(e.k.src), int(e.k.dst))
		at[2*i], at[2*i+1] = -1, -1
		if h.sendD >= 0 {
			at[2*i] = p.frameIndex(h.sendD, h.sendTo)
			off[at[2*i]+1]++
		}
		if h.recvD >= 0 {
			at[2*i+1] = int32(nf) + p.frameIndex(h.recvD, h.recvFrom)
			off[at[2*i+1]+1]++
		}
		if h.deliver {
			ndeliver++
		}
	}
	// Prefix sums turn the counts into window starts.
	for f := 1; f < len(off); f++ {
		off[f] += off[f-1]
	}
	p.rows = resize(p.rows, int(off[2*nf]))
	f := 0
	for _, side := range [2][][][]int32{p.outs, p.ins} {
		for _, lists := range side {
			for j := range lists {
				lists[j] = p.rows[off[f]:off[f+1]:off[f+1]]
				f++
			}
		}
	}
	p.deliver = slices.Grow(p.deliver[:0], ndeliver)
	for i, e := range p.pairs {
		for _, g := range at[2*i : 2*i+2] {
			if g >= 0 {
				p.rows[off[g]] = int32(i)
				off[g]++
			}
		}
		if e.k.dst == int32(me) {
			p.deliver = append(p.deliver, int32(i))
		}
	}
	own := p.ownPairs()
	p.destList = resize(p.destList, len(own))
	for j, e := range own {
		p.destList[j] = int(e.k.dst)
	}
}

// frameIndex numbers the frame this rank sends to (or receives from) the
// dimension-d neighbor peer among all of its frames in one direction:
// stage by stage, in digit order within a stage.
func (p *Persistent) frameIndex(d, peer int) int32 {
	t := p.topo
	f := t.Digit(peer, d)
	if f > t.Digit(p.rank, d) {
		f--
	}
	for e := 0; e < d; e++ {
		f += t.Dim(e) - 1
	}
	return int32(f)
}

// route is Algorithm 1 on one rank, and the one loop that routes frames
// as they land: the learning run (NewPersistent), a one-shot Exchange and
// the census (Census) all run it, stage d under tag tag0+d. visit, when
// set, is handed every pair the rank originates, in destination order,
// and every pair it receives, as its frame lands; an error from it fails
// the run. Replaying a learned pattern does not come here: that is the
// compiled Replay's loop.
//
// Stage d sends one frame to every dimension-d neighbor (empty when nothing
// routes through it, so receive counts are deterministic) and receives one
// from each. Every frame is encoded into a pooled buffer and sent inline,
// and released unless the transport retains it; inbound frames are
// retained until the exchange ends — the submessages scattered from them
// alias them — then recycled after the deliveries are copied out. A stage's
// frames are received in arrival order (runtime.RecvPolicy over RecvAnyOf),
// each decoded, misroute-checked, visited and scattered as it lands; a
// frame from a rank that is not a dimension-d neighbor, a second frame from
// one, and a pair whose route does not enter the rank from the frame's
// sender in stage d are errors, with or without a visitor. The order
// frames land in reaches no wire byte: what a stage leaves in the forward
// buffers is a set, and every frame goes on the wire with its submessages
// in ascending (src, dst) order, so every learned layout is independent of
// the transport's timing.
func route(c runtime.Comm, t *vpt.Topology, tag0 int, payloads map[int][]byte, visit func(msg.Submessage) error) (*Delivered, error) {
	me := c.Rank()
	if t.Size() != c.Size() {
		return nil, fmt.Errorf("core: topology size %d != communicator size %d", t.Size(), c.Size())
	}
	dests := make([]int, 0, len(payloads))
	for dst := range payloads {
		dests = append(dests, dst)
	}
	sort.Ints(dests)

	// Lines 4-6 of Algorithm 1: scatter my send list into the forward
	// buffers, keyed by the first differing digit.
	fb := msg.NewForwardBuffers(t.Dims())
	out := &Delivered{}
	for _, dst := range dests {
		sub := msg.Submessage{Src: me, Dst: dst, Data: payloads[dst]}
		if dst < 0 || dst >= t.Size() {
			return nil, fmt.Errorf("core: rank %d: destination %d out of range", me, dst)
		}
		if visit != nil {
			if err := visit(sub); err != nil {
				return nil, err
			}
		}
		if dst == me {
			out.Subs = append(out.Subs, sub)
			continue
		}
		d := t.FirstDiff(me, dst)
		fb.Put(d, t.Digit(dst, d), sub)
	}

	// Stage d sends to and expects a frame from every dimension-d
	// neighbor, in digit order, which is ascending rank order: the stage's
	// window of nbrs. The transport is told so before the first send.
	nbrs, hint := stageSkeleton(t, me, tag0)
	runtime.HintTraffic(c, hint)
	// retained[i] holds the frame from the i-th neighbor of nbrs once it
	// has landed; decoded is the DecodeInto scratch, reused frame after
	// frame.
	retained := make([][]byte, len(nbrs))
	defer func() {
		for _, b := range retained {
			msg.PutFrame(b)
		}
	}()
	var decoded msg.Message
	var pol runtime.RecvPolicy
	retains := runtime.SendRetains(c)

	lo := 0
	for d, st := range hint {
		tag := st.Tag
		peers, landed := nbrs[lo:lo+len(st.Recvs)], retained[lo:lo+len(st.Recvs)]
		lo += len(peers)

		// Lines 9-12: each outbound frame drains the forward buffer keyed by
		// the destination's dimension-d digit. The buffer holds the
		// submessages in the order their frames landed; sorting them fixes
		// the wire layout.
		for _, to := range peers {
			m := msg.Message{From: me, To: to, Subs: fb.Take(d, t.Digit(to, d))}
			msg.SortSubs(m.Subs)
			buf := msg.Encode(msg.GetFrameCap(msg.EncodedSize(&m)), &m)
			err := c.Send(to, tag, buf)
			if !retains {
				msg.PutFrame(buf)
			}
			if err != nil {
				return nil, fmt.Errorf("core: rank %d stage %d send to %d: %w", me, d, to, err)
			}
		}

		// Lines 13-17: receive one frame per neighbor, whichever lands
		// first, and scatter its submessages into later-stage buffers or
		// deliver them. The sender comes from the matcher, never from loop
		// position, so the misroute checks are valid under any delivery
		// order; peers is ascending, so the sender's index is a binary
		// search away.
		pol.Reset(peers)
		for pol.Outstanding() > 0 {
			from, raw, err := pol.Next(c, tag)
			if err != nil {
				return nil, recvFault(me, d, d, peers, func(j int) bool { return landed[j] != nil }, err)
			}
			j, ok := slices.BinarySearch(peers, from)
			if !ok || landed[j] != nil {
				msg.PutFrame(raw)
				return nil, fmt.Errorf("core: rank %d stage %d: frame from unexpected sender %d", me, d, from)
			}
			landed[j] = raw
			if err := msg.DecodeInto(&decoded, raw); err != nil {
				return nil, fmt.Errorf("core: rank %d stage %d frame from %d: %w", me, d, from, err)
			}
			if decoded.From != from || decoded.To != me {
				return nil, fmt.Errorf("core: rank %d stage %d: misrouted frame %d->%d arrived from %d",
					me, d, decoded.From, decoded.To, from)
			}
			// Every pair travels its dimension-ordered route: one that does
			// not enter here from this sender in this stage is misrouted,
			// and a recorded table would derive it into another frame than
			// the one it came in.
			for _, sub := range decoded.Subs {
				if h, _ := routeHops(t, me, sub.Src, sub.Dst); h.recvD != d || h.recvFrom != from {
					return nil, fmt.Errorf("core: rank %d stage %d: misrouted submessage %d->%d from %d: its route does not enter here",
						me, d, sub.Src, sub.Dst, from)
				}
				if visit != nil {
					if err := visit(sub); err != nil {
						return nil, fmt.Errorf("core: rank %d stage %d frame from %d: %w", me, d, from, err)
					}
				}
			}
			if err := scatterFrame(t, me, d, fb, out, decoded.Subs); err != nil {
				return nil, err
			}
		}
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
// learned layout into a byte Replay, which copies the caller's payloads
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
