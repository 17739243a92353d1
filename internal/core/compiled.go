// Compiled iteration programs: the one replay engine. Both ways of
// replaying a learned pattern lower it into a Replay, a fully indexed
// program under the assumption that payload *sizes* are the learned ones
// (the iterative-solver case: one float64 per matrix column shipped, every
// iteration, to the same ranks). Compile lowers a word replay, whose
// payloads are float64s gathered from x[idx]; Persistent.Run lowers itself
// into a byte replay, whose payloads are the caller's bytes. The program
// owns precomputed frame sizes and submessage offsets, and writes every
// byte of an outgoing frame exactly once per iteration:
//
//   - header: the 16-byte frame header, from the frame's destination and
//     submessage count,
//   - gather: this rank's own submessages — a sub-header, then x[idx]
//     float64s (word replay) or the caller's payload whole (byte replay),
//     written straight into the pooled frame buffer,
//   - forward: one memcpy per forwarded submessage, sub-header and payload
//     together, from a retained inbound frame — the inbound header is the
//     one the outgoing frame needs, so forwarded bytes are never decoded or
//     re-encoded,
//   - deliver: every payload addressed to this rank is copied out of its
//     inbound frame to a precomputed offset — of the caller's halo slice
//     (word replay) or of one Delivered arena (byte replay),
//   - check: every inbound slot's sub-header is held to the learned one
//     (source, destination, length) where the slot is consumed, on delivery
//     or when forwarded, so a frame that deviates from the pattern fails
//     the run,
//   - sum lane (RunSum only): the caller's reduction words, appended after
//     the frame body and folded stage by stage in digit order, so one
//     exchange is also an allreduce.
//
// Both wire headers are 16 bytes and every word replay payload is
// word-sized, so in a word replay every payload sits on an 8-byte boundary
// of its (pooled, aligned) frame buffer and gather and scatter move
// float64s through msg.Float64View on a little-endian host.
//
// No maps are consulted and nothing is allocated in steady state: frame
// buffers come from the msg arena and every error path is off the happy
// path. This is the moral equivalent of MPI_Start on a persistent
// neighborhood collective built once with MPIX_Neighbor_alltoallv_init.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
)

// Replay is a compiled iteration program for one rank: a fixed schedule of
// frame builds, sends, receives, and copies. Obtain one from
// Persistent.Compile (store-and-forward) or NewDirectReplay (baseline);
// Persistent.PatchCompiled lowers a patched schedule into an existing one.
// A Replay is bound to the rank and world it was compiled for and is not
// safe for concurrent use.
type Replay struct {
	me, size  int
	xlen      int // required len(x) in Run
	haloBytes int // delivered payload bytes: 8*len(halo) in Run
	// bytes marks a byte replay (Persistent.Run): gathers copy the caller's
	// payloads and deliveries land in arena. A word replay moves float64s
	// from x and into halo.
	bytes  bool
	selfs  []selfOp
	stages []rStage
	// lane is set by a store-and-forward lowering, whose every stage sends
	// a frame to and receives one from each dimension neighbour — what
	// RunSum's fold needs. A direct replay leaves it false.
	lane bool
	// sends and delivs are a byte replay's learned payloads: sends[i] is
	// this rank's payload to its i-th learned destination (gatherOp.pay,
	// selfOp.pay), delivs the deliveries in order at their arena offsets.
	// Persistent.Run holds the caller to sends and returns delivs.
	sends, delivs []paySlot
	// pays are a running byte replay's payloads, in sends order, dropped as
	// the run returns. arena holds a byte replay's deliveries: Persistent.Run
	// allocates it with each lowering and returns it, every Run writing it
	// anew.
	pays  [][]byte
	arena []byte
	// inFrames retains received frames until the iteration ends: later
	// stages memcpy forwarded payloads out of them. Entries are recycled
	// into the frame arena at the end of every Run.
	inFrames [][]byte
	// pol serves each stage's receives in arrival order; its sender list
	// is reset per stage and reused across runs.
	pol runtime.RecvPolicy
	// tele, when set, counts forwarded bytes on every Run and records
	// gather/forward/deliver spans on the Runs it samples; see Instrument.
	tele *telemetry.Rank
	// traffic is the compiled schedule's transport hint (computeTraffic),
	// offered to the transport at the top of every Run. Cached so the
	// steady-state iteration stays allocation-free; every lowering rebuilds
	// it.
	traffic []runtime.StageTraffic
}

// Instrument attaches a live telemetry collector to the replay: every Run
// counts forwarded submessage bytes, and every Run the collector traces
// (telemetry.Rank.Sample: one in telemetry.SampleEvery) records one gather
// span (the self-delivery scatter) plus, per stage, a forward span (frame
// build and send: gather ops, forward memcpys, Send) and a deliver span
// (arrival-order receives and halo scatter, naming the last sender). A nil
// collector detaches. A traced Run costs two clock reads per stage, an
// untraced one none; neither allocates, preserving the replay's
// zero-allocation steady state.
func (r *Replay) Instrument(t *telemetry.Rank) { r.tele = t }

// rStage is one communication stage: the frames sent to this stage's
// neighbors and the receive schedule for the frames arriving from them.
type rStage struct {
	tag      int
	dim      int // VPT dimension the stage traverses (ScheduleStage.Dim)
	frames   []rFrame
	recvFrom []int // expected senders (ScheduleStage.RecvFrom)
	ins      []rIn // receive program per expected sender
	// fold lists the stage's sum-lane contributions in the digit order of
	// its dimension: an index into recvFrom, or -1 for this rank's own.
	fold []int32
}

// rIn is the receive program of the frame from one expected sender: its
// retention slot (index into inFrames), its byte size without the sum lane,
// its submessage count and the deliveries it carries.
type rIn struct {
	idx, size, nsubs int32
	delivers         []deliverOp
}

// deliverOp copies the n payload bytes of one learned slot addressed to
// this rank, found at srcOff of an inbound frame, to delivery offset at:
// float64s into the halo, or bytes into the arena. hdr is the slot's
// learned source and destination (subHdrWord); the sub-header before the
// payload is checked against it first.
type deliverOp struct {
	hdr           uint64
	srcOff, at, n int32
}

// subHdrWord packs a submessage's source and destination the way the first
// eight bytes of its sub-header carry them.
func subHdrWord(k slotKey) uint64 { return uint64(uint32(k.src)) | uint64(uint32(k.dst))<<32 }

// paySlot is one learned payload: its (src, dst) pair, byte length n and,
// for a delivery, its offset in the arena.
type paySlot struct {
	k      slotKey
	off, n int32
}

// rFrame is one outgoing frame program: its destination, byte size and
// submessage count (Run writes the frame header from them), plus the ops
// that write its submessages, which tile the rest of the frame.
type rFrame struct {
	to      int
	size    int32
	nsubs   int32
	gathers []gatherOp
	fwds    []fwdOp
}

// gatherOp writes this rank's submessage to dst at frame offset off: its
// sub-header, then at off+SubHeaderLen the payload — x[idx[i]] as
// little-endian float64s in a word replay, pays[pay] in a byte replay.
type gatherOp struct {
	off, dst, pay int32
	idx           []int32
}

// fwdOp copies one forwarded submessage, n bytes of sub-header and payload,
// from retained inbound frame `frame` at srcOff into the outgoing frame at
// dstOff. The inbound sub-header already names the slot's source,
// destination and length, so it is copied, never re-encoded — once it has
// been checked against the learned hdr (subHdrWord) and length.
type fwdOp struct {
	hdr               uint64
	dstOff, srcOff, n int32
	frame             int32
}

// selfOp delivers this rank's own payload to itself at byte offset at, no
// frame involved: x[idx[i]] into the halo, or pays[pay] into the arena.
type selfOp struct {
	idx     []int32
	pay, at int32
}

type slotLoc struct {
	frame, off int32
}

// Compile lowers the learned StageSchedule (Persistent.Schedule — the same
// IR Run replays) into a new word Replay: destination dst's payload is
// always the float64s x[gather[dst][0]], x[gather[dst][1]], ... read from
// the x slice passed to Run. The lowering keeps the schedule's stage
// skeleton — tags, send slots in send order, inbound sender sets — and
// specializes every slot into precomputed byte offsets: in-place header
// writes replace encoding, memcpys replace forwarding, and halo offsets
// replace the delivered submessages. gather must cover exactly the learned
// destinations, and each list's byte size (8 per index) must equal the
// learning run's payload size for that destination; every payload
// delivered to this rank must be word-sized. The gather lists are retained
// by the Replay and must not be mutated afterwards.
//
// Deliveries are scattered into Run's halo slice in the learned delivery
// order (sorted by source rank), one contiguous word block per source.
func (p *Persistent) Compile(xlen int, gather map[int][]int32) (*Replay, error) {
	r := &Replay{}
	if err := p.lower(r, false, xlen, gather); err != nil {
		return nil, err
	}
	return r, nil
}

// lower writes the learned schedule into r: the payload and halo layout and
// self ops, then per stage one frame program per send slot and one receive
// program per inbound frame. A byte lowering (Persistent.Run) takes the
// learned payload sizes as they are; a word lowering (Compile,
// PatchCompiled) checks gather against them and requires word-sized
// deliveries. Every slice r already holds — stages, op tables, inbound
// slots, inFrames — is reused up to its capacity, so lowering into an
// existing Replay of the same skeleton allocates only the lowering's two
// per-row offset tables and the traffic hint. The gather contract is
// checked before r is touched; a later error (a non-word payload) leaves r
// unusable until a lowering succeeds.
func (p *Persistent) lower(r *Replay, bytes bool, xlen int, gather map[int][]int32) error {
	me := p.rank
	if !bytes {
		if err := p.checkGather(xlen, gather); err != nil {
			return err
		}
	}
	r.me, r.size, r.xlen, r.bytes = me, p.topo.Size(), xlen, bytes
	r.lane = true

	r.sends, r.delivs = r.sends[:0], r.delivs[:0]
	if bytes {
		for _, e := range p.ownPairs() {
			r.sends = append(r.sends, paySlot{k: e.k, n: e.n})
		}
	}
	r.pays = resize(r.pays, len(r.sends))

	// Halo: one contiguous block per delivery, in the learned order. Self
	// deliveries come straight from the caller; haloOff[i] keeps the
	// offset of every other delivered row i for layoutInbound, which binds
	// it to the row's inbound frame slot.
	haloOff := make([]int32, len(p.pairs))
	r.haloBytes = 0
	r.selfs = r.selfs[:0]
	for _, i := range p.deliver {
		e := p.pairs[i]
		if !bytes && e.n%8 != 0 {
			return fmt.Errorf("core: compile: delivery %d->%d has %d bytes, compiled replays require word-sized payloads", e.k.src, e.k.dst, e.n)
		}
		at := int32(r.haloBytes)
		if bytes {
			r.delivs = append(r.delivs, paySlot{k: e.k, off: at, n: e.n})
		}
		if e.k.src == int32(me) {
			r.selfs = append(r.selfs, selfOp{idx: gather[int(e.k.dst)], pay: p.payIndex(e.k.dst), at: at})
		} else {
			haloOff[i] = at
		}
		r.haloBytes += int(e.n)
	}

	// inLoc[i] is the retained-frame location of row i when it is received
	// for forwarding, filled stage by stage before later stages read it.
	inLoc := make([]slotLoc, len(p.pairs))
	nextFrame := int32(0)
	sched := p.Schedule()
	r.stages = resize(r.stages, len(sched.Stages))
	for d := range r.stages {
		st := &r.stages[d]
		ss := &sched.Stages[d]
		st.tag = ss.Tag
		st.dim = ss.Dim

		// Outgoing frames follow the schedule's send slots (learning send
		// order, empty frames included); each slot's learned wire layout
		// becomes a frame program.
		st.frames = resize(st.frames, len(ss.Sends))
		for j, slot := range ss.Sends {
			p.lowerFrame(&st.frames[j], slot.To, p.outs[d][j], gather, inLoc)
		}

		// Inbound frames: register forwarded slots for later stages and
		// bind deliveries to their frame regions.
		st.recvFrom = append(st.recvFrom[:0], ss.RecvFrom...)
		st.ins = resize(st.ins, len(ss.RecvFrom))
		for j := range ss.RecvFrom {
			st.ins[j].idx = nextFrame
			nextFrame++
			p.layoutInbound(&st.ins[j], p.ins[d][j], haloOff, inLoc)
		}
		if err := p.lowerFold(st); err != nil {
			return fmt.Errorf("core: compile: stage %d: %w", d, err)
		}
	}
	// Run leaves every entry nil, so the reused prefix needs no clearing.
	r.inFrames = resize(r.inFrames, int(nextFrame))
	r.traffic = r.computeTraffic()
	return nil
}

// resize returns s with length n, keeping its backing array — and with it
// the slices its elements hold — when the capacity suffices.
func resize[S ~[]E, E any](s S, n int) S {
	return slices.Grow(s[:0], n)[:n]
}

// payIndex returns the index of destination dst in the learned destination
// list: where a byte replay finds the caller's payload for it.
func (p *Persistent) payIndex(dst int32) int32 {
	i, _ := slices.BinarySearch(p.destList, int(dst))
	return int32(i)
}

// layoutInbound rewrites in from the rows of one inbound frame in wire
// order: slot count, byte size, a deliverOp for every row addressed to this
// rank (at its haloOff), and in inLoc the retained-frame location of every
// row to be forwarded in a later stage — the offset of its sub-header,
// which travels with it. in.idx must already name the frame.
func (p *Persistent) layoutInbound(in *rIn, rows []int32, haloOff []int32, inLoc []slotLoc) {
	in.nsubs = int32(len(rows))
	in.delivers = in.delivers[:0]
	fo := int32(msg.MsgHeaderLen)
	for _, i := range rows {
		e := p.pairs[i]
		payloadOff := fo + msg.SubHeaderLen
		if e.k.dst == int32(p.rank) {
			in.delivers = append(in.delivers, deliverOp{hdr: subHdrWord(e.k), srcOff: payloadOff, at: haloOff[i], n: e.n})
		} else {
			inLoc[i] = slotLoc{frame: in.idx, off: fo}
		}
		fo = payloadOff + e.n
	}
	in.size = fo
}

// lowerFold writes st.fold: the stage's dimension digits in ascending
// order, each mapped to the inbound frame of the neighbour holding it, or
// to -1 at this rank's own digit. Every rank of a dimension line then folds
// the same values in the same order.
func (p *Persistent) lowerFold(st *rStage) error {
	t := p.topo
	mine := t.Digit(p.rank, st.dim)
	st.fold = st.fold[:0]
	for x := 0; x < t.Dim(st.dim); x++ {
		if x == mine {
			st.fold = append(st.fold, -1)
			continue
		}
		nbr := t.WithDigit(p.rank, st.dim, x)
		j := slices.Index(st.recvFrom, nbr)
		if j < 0 {
			return fmt.Errorf("no inbound frame from dimension %d neighbour %d", st.dim, nbr)
		}
		st.fold = append(st.fold, int32(j))
	}
	return nil
}

// checkGather validates a gather map against the (current) learned
// pattern: exactly one list per destination, each list's byte size equal
// to the pattern's payload size, every index inside x.
func (p *Persistent) checkGather(xlen int, gather map[int][]int32) error {
	own := p.ownPairs()
	if len(gather) != len(own) {
		return fmt.Errorf("core: compile: %d gather lists for %d learned destinations", len(gather), len(own))
	}
	for _, e := range own {
		dst := int(e.k.dst)
		idx, ok := gather[dst]
		if !ok {
			// As many lists as destinations, one missing: a list is stray.
			for dst := range gather {
				if _, ok := slices.BinarySearch(p.destList, dst); !ok {
					return fmt.Errorf("core: compile: destination %d not in the learned pattern", dst)
				}
			}
		}
		if 8*len(idx) != int(e.n) {
			return fmt.Errorf("core: compile: destination %d gathers %d words, learned payload is %d bytes",
				dst, len(idx), e.n)
		}
		for _, g := range idx {
			if int(g) < 0 || int(g) >= xlen {
				return fmt.Errorf("core: compile: gather index %d out of x range [0,%d)", g, xlen)
			}
		}
	}
	return nil
}

// lowerFrame writes one outgoing frame program into f, reusing its op
// tables: the frame's size and submessage count, then one op per row in
// wire order — a gather for this rank's own payloads, a forward copy of
// sub-header and payload for every other row, from where inLoc found it:
// a route forwards a pair in a later stage than it receives it.
func (p *Persistent) lowerFrame(f *rFrame, to int, rows []int32, gather map[int][]int32, inLoc []slotLoc) {
	me := p.rank
	f.to = to
	f.nsubs = int32(len(rows))
	f.gathers = f.gathers[:0]
	f.fwds = f.fwds[:0]
	off := int32(msg.MsgHeaderLen)
	for _, i := range rows {
		e := p.pairs[i]
		n := msg.SubHeaderLen + e.n
		if e.k.src == int32(me) {
			f.gathers = append(f.gathers, gatherOp{off: off, dst: e.k.dst, pay: p.payIndex(e.k.dst), idx: gather[int(e.k.dst)]})
		} else {
			l := inLoc[i]
			f.fwds = append(f.fwds, fwdOp{hdr: subHdrWord(e.k), dstOff: off, frame: l.frame, srcOff: l.off, n: n})
		}
		off += n
	}
	f.size = off
}

// NewDirectReplay compiles the baseline (BL) iteration for one rank: one
// direct frame per destination carrying the float64s x[gather[dst]], and
// one expected frame from every source in srcWords (mapping source rank to
// its payload word count). Deliveries land in Run's halo slice sorted by
// source rank, matching the store-and-forward Replay's halo layout for the
// same pattern. A self payload is declared via gather[me] only; srcWords
// must not list the rank itself. Run is collective with the other ranks'
// direct replays of the same pattern.
func NewDirectReplay(me, size, xlen int, gather map[int][]int32, srcWords map[int]int) (*Replay, error) {
	if me < 0 || me >= size {
		return nil, fmt.Errorf("core: direct replay rank %d out of range [0,%d)", me, size)
	}
	r := &Replay{me: me, size: size, xlen: xlen}
	dests := make([]int, 0, len(gather))
	for dst, idx := range gather {
		if dst < 0 || dst >= size {
			return nil, fmt.Errorf("core: direct replay destination %d out of range [0,%d)", dst, size)
		}
		for _, g := range idx {
			if int(g) < 0 || int(g) >= xlen {
				return nil, fmt.Errorf("core: direct replay gather index %d out of x range [0,%d)", g, xlen)
			}
		}
		dests = append(dests, dst)
	}
	sort.Ints(dests)

	// Delivery order: sorted source ranks, self included via gather[me].
	srcs := make([]int, 0, len(srcWords)+1)
	for src := range srcWords {
		if src == me {
			return nil, fmt.Errorf("core: direct replay: self source is declared via gather[%d], not srcWords", me)
		}
		if src < 0 || src >= size {
			return nil, fmt.Errorf("core: direct replay source %d out of range [0,%d)", src, size)
		}
		srcs = append(srcs, src)
	}
	if _, ok := gather[me]; ok {
		srcs = append(srcs, me)
	}
	sort.Ints(srcs)

	st := rStage{tag: tagBase - 1, dim: 0}
	at := int32(0)
	for _, src := range srcs {
		if src == me {
			r.selfs = append(r.selfs, selfOp{idx: gather[me], at: at})
			at += 8 * int32(len(gather[me]))
			continue
		}
		n := 8 * int32(srcWords[src])
		k := slotKey{src: int32(src), dst: int32(me)}
		st.recvFrom = append(st.recvFrom, src)
		st.ins = append(st.ins, rIn{
			idx:      int32(len(st.ins)),
			size:     msg.MsgHeaderLen + msg.SubHeaderLen + n,
			nsubs:    1,
			delivers: []deliverOp{{hdr: subHdrWord(k), srcOff: msg.MsgHeaderLen + msg.SubHeaderLen, at: at, n: n}},
		})
		at += n
	}
	r.haloBytes = int(at)

	for _, dst := range dests {
		if dst == me {
			continue // self payload never touches the transport
		}
		idx := gather[dst]
		st.frames = append(st.frames, rFrame{
			to:      dst,
			size:    int32(msg.MsgHeaderLen+msg.SubHeaderLen) + 8*int32(len(idx)),
			nsubs:   1,
			gathers: []gatherOp{{off: msg.MsgHeaderLen, dst: int32(dst), idx: idx}},
		})
	}
	r.stages = []rStage{st}
	r.inFrames = make([][]byte, len(st.recvFrom))
	r.traffic = r.computeTraffic()
	return r, nil
}

// HaloWords returns the number of float64s Run scatters into its halo
// argument (the sum of all delivered payload word counts, in delivery
// order).
func (r *Replay) HaloWords() int { return r.haloBytes / 8 }

// Run executes one compiled iteration: it builds and sends every learned
// frame with payload float64s gathered from x, receives this rank's
// inbound frames in arrival order, and scatters the delivered payloads
// into halo (which must have exactly HaloWords entries). Collective across
// the world the program was compiled in; steady-state calls perform no
// allocation on zero-copy transports. Run is RunSum with no lane.
func (r *Replay) Run(c runtime.Comm, x []float64, halo []float64) error {
	return r.RunSum(c, x, halo, nil)
}

// RunSum is Run with a sum lane: every stage frame carries sum's words as
// little-endian float64s after its body, and at the end of each stage this
// rank folds the lanes of the stage's line — its own and every
// neighbour's, in the digit order of the stage's dimension — into sum.
// After stage d every rank of a dimension-d line holds the same bits, so
// after the last stage every rank of the world holds the same sum of all
// ranks' words: the exchange doubles as an allreduce without a message of
// its own. Every rank must pass a lane of the same length; a rank whose
// length differs makes every rank return an error. With a nil lane the
// frames are exactly Run's. A direct replay has no lane and rejects a
// non-nil one.
//
// A frame that fails its header, length or slot check, a frame from a
// sender the stage does not expect and a failed receive do not end the
// call at once: the rank drains the stage, then sends a poison frame
// wherever a later stage expects one and drains those stages too, so the
// error reaches every rank the failing one would have reached and no rank
// is left waiting for a frame. It returns the first such error.
func (r *Replay) RunSum(c runtime.Comm, x, halo, sum []float64) error {
	if c.Rank() != r.me || c.Size() != r.size {
		return fmt.Errorf("core: replay bound to rank %d of %d", r.me, r.size)
	}
	if len(x) != r.xlen {
		return fmt.Errorf("core: replay compiled for len(x)=%d, got %d", r.xlen, len(x))
	}
	if 8*len(halo) != r.haloBytes {
		return fmt.Errorf("core: replay delivers %d words, halo has %d", r.HaloWords(), len(halo))
	}
	if sum != nil && !r.lane {
		return fmt.Errorf("core: rank %d: a direct replay carries no sum lane", r.me)
	}
	return r.run(c, x, halo, sum, nil)
}

// run is the replay loop behind both entry points: RunSum on a word
// replay, Persistent.Run on a byte replay (x, halo and sum nil, r.pays and
// r.arena bound). bad, when set, is a breach of the caller's contract
// found before stage 0: the rank then sends only poison frames and drains
// every stage, as after a failed frame check.
func (r *Replay) run(c runtime.Comm, x, halo, sum []float64, bad error) error {
	laneBytes := int32(8 * len(sum))
	runtime.HintTraffic(c, r.traffic)
	defer r.release()

	// Traced whole or not at all: tr is nil on an untraced Run.
	tr := r.tele.Sample()
	var mark time.Time
	if tr != nil {
		mark = time.Now()
	}
	for _, s := range r.selfs {
		if bad != nil {
			break
		}
		if r.bytes {
			copy(r.arena[s.at:], r.pays[s.pay])
			continue
		}
		dst := halo[s.at/8:][:len(s.idx)]
		for i, g := range s.idx {
			dst[i] = x[g]
		}
	}
	if tr != nil {
		mark = tr.SpanMark(telemetry.KGather, -1, -1, mark)
	}

	retains := runtime.SendRetains(c)
	for si := range r.stages {
		st := &r.stages[si]
		fwdSubs, fwdBytes := 0, 0
		for fi := range st.frames {
			f := &st.frames[fi]
			buf := msg.GetFrameLen(int(f.size + laneBytes))
			if bad == nil {
				msg.PutFrameHeader(buf, r.me, f.to, int(f.nsubs))
				for _, g := range f.gathers {
					payload := buf[g.off+msg.SubHeaderLen:]
					if r.bytes {
						pay := r.pays[g.pay]
						msg.PutSubHeader(buf[g.off:], r.me, int(g.dst), len(pay))
						copy(payload, pay)
					} else {
						msg.PutSubHeader(buf[g.off:], r.me, int(g.dst), 8*len(g.idx))
						gatherFloats(payload[:8*len(g.idx)], x, g.idx)
					}
				}
				for _, fw := range f.fwds {
					sub := r.inFrames[fw.frame][fw.srcOff : fw.srcOff+fw.n]
					if !slotOK(sub, fw.hdr) {
						bad = r.forwardError(fw, sub)
						break
					}
					copy(buf[fw.dstOff:], sub)
					fwdSubs++
					fwdBytes += int(fw.n) - msg.SubHeaderLen
				}
				if laneBytes > 0 {
					putFloats(buf[f.size:], sum)
				}
			}
			if bad != nil {
				// After a breach or a failed check, even one found while
				// building this frame, a poison frame goes out in its place.
				buf = buf[:msg.MsgHeaderLen]
				msg.PutFrameHeader(buf, r.me, f.to, poisonSubs)
			}
			err := c.Send(f.to, st.tag, buf)
			if !retains {
				msg.PutFrame(buf)
			}
			if err != nil {
				if bad != nil {
					return bad // a poison send failed; the first error stands
				}
				return fmt.Errorf("core: rank %d replay stage %d send to %d: %w", r.me, si, f.to, err)
			}
		}
		if r.tele != nil && fwdSubs > 0 {
			r.tele.CountForward(si, fwdSubs, fwdBytes)
		}
		if tr != nil {
			mark = tr.SpanMark(telemetry.KForward, si, -1, mark)
		}

		// Every expected frame takes one turn, whatever fills it: a frame,
		// a frame from a sender the stage does not expect (or one that has
		// landed), or a receive error. The last two fail the run like a
		// failed check, so the rank still walks every stage, poisoning what
		// it sends, and a stage's receives end after len(recvFrom) turns.
		r.pol.Reset(st.recvFrom)
		last := -1
		for turns := len(st.recvFrom); turns > 0; turns-- {
			from, raw, err := r.pol.Next(c, st.tag)
			if err != nil {
				if bad == nil {
					bad = r.recvError(si, err)
				}
				continue
			}
			last = from
			if bad != nil {
				msg.PutFrame(raw)
				continue
			}
			j := slices.Index(st.recvFrom, from)
			if j < 0 || r.inFrames[st.ins[j].idx] != nil {
				msg.PutFrame(raw)
				bad = fmt.Errorf("core: rank %d replay stage %d: frame from unexpected sender %d", r.me, si, from)
				continue
			}
			in := &st.ins[j]
			err = checkFrameHeader(raw, from, r.me, in.size+laneBytes, in.nsubs)
			if err == nil {
				err = r.deliver(in, raw, halo)
			}
			if err != nil {
				msg.PutFrame(raw)
				bad = fmt.Errorf("core: rank %d replay stage %d frame from %d: %w", r.me, si, from, err)
				continue
			}
			r.inFrames[in.idx] = raw
		}
		if bad == nil && len(sum) > 0 {
			r.foldLane(st, sum)
		}
		if tr != nil {
			mark = tr.SpanMark(telemetry.KDeliver, si, last, mark)
		}
	}
	return bad
}

// recvError attributes a failed receive of stage si through recvFault. run
// calls it only while no frame has failed, so every frame that landed is
// retained in inFrames. The closure stays out of run: inline, it grew run's
// stack frame and spmv-tcp-wide's op_p50_ms read 1–4 % worse (EXPERIMENTS
// "One frame layout").
func (r *Replay) recvError(si int, err error) error {
	st := &r.stages[si]
	return recvFault(r.me, si, st.dim, st.recvFrom, func(j int) bool { return r.inFrames[st.ins[j].idx] != nil }, err)
}

// deliver copies the payloads an inbound frame carries to this rank, as
// float64s into halo or as bytes into the arena, each after checking its
// sub-header against the learned slot: a frame that deviates from the
// pattern is a routing fault, not new data. The frame's length has been
// checked, so every learned slot lies inside it.
func (r *Replay) deliver(in *rIn, raw []byte, halo []float64) error {
	for _, dv := range in.delivers {
		sub := raw[dv.srcOff-msg.SubHeaderLen : dv.srcOff+dv.n]
		if !slotOK(sub, dv.hdr) {
			return slotMismatch(sub, dv.hdr)
		}
		if r.bytes {
			copy(r.arena[dv.at:], sub[msg.SubHeaderLen:])
		} else {
			scatterFloats(halo[dv.at/8:][:dv.n/8], sub[msg.SubHeaderLen:])
		}
	}
	return nil
}

// slotOK reports whether sub, one submessage's sub-header and payload cut
// at its learned offset and length, carries its learned sub-header: source
// and destination hdr, length len(sub)-SubHeaderLen, reserved word 0. A
// slot is checked where the replay consumes it — delivered here, or
// forwarded in a later stage — so every inbound slot is checked once.
func slotOK(sub []byte, hdr uint64) bool {
	return binary.LittleEndian.Uint64(sub) == hdr &&
		binary.LittleEndian.Uint64(sub[8:]) == uint64(len(sub)-msg.SubHeaderLen)
}

// slotMismatch names how the sub-header of sub deviates from learned slot
// hdr and length len(sub)-SubHeaderLen.
func slotMismatch(sub []byte, hdr uint64) error {
	// Both headers share one shape, so the frame-header reader parses a
	// sub-header too, reserved word included.
	src, dst, n, err := msg.ReadFrameHeader(sub)
	if err != nil {
		return err
	}
	if k := (slotKey{src: int32(src), dst: int32(dst)}); subHdrWord(k) != hdr {
		return fmt.Errorf("misrouted submessage %d->%d (learned slot %d->%d)", src, dst, int32(hdr), int32(hdr>>32))
	}
	return fmt.Errorf("submessage %d->%d carries %d bytes, learned layout has %d", src, dst, n, len(sub)-msg.SubHeaderLen)
}

// forwardError reports a forwarded slot that failed its check, naming the
// stage and sender of the inbound frame it came in.
func (r *Replay) forwardError(fw fwdOp, sub []byte) error {
	for si := range r.stages {
		st := &r.stages[si]
		for j := range st.ins {
			if st.ins[j].idx == fw.frame {
				return fmt.Errorf("core: rank %d replay stage %d frame from %d: %w", r.me, si, st.recvFrom[j], slotMismatch(sub, fw.hdr))
			}
		}
	}
	return fmt.Errorf("core: rank %d replay: %w", r.me, slotMismatch(sub, fw.hdr))
}

// foldLane replaces each word of sum with the stage line's total of it:
// the lanes after the bodies of the stage's retained inbound frames and
// this rank's own word, added in st.fold's digit order.
func (r *Replay) foldLane(st *rStage, sum []float64) {
	for w, own := range sum {
		var acc float64
		for i, j := range st.fold {
			v := own
			if j >= 0 {
				in := &st.ins[j]
				at := in.size + int32(8*w)
				v = math.Float64frombits(binary.LittleEndian.Uint64(r.inFrames[in.idx][at:]))
			}
			if i == 0 {
				acc = v
			} else {
				acc += v
			}
		}
		sum[w] = acc
	}
}

// release recycles the retained inbound frames into the arena, clears the
// retention table for the next iteration and drops a byte replay's hold on
// the caller's payloads.
func (r *Replay) release() {
	for i, b := range r.inFrames {
		if b != nil {
			msg.PutFrame(b)
			r.inFrames[i] = nil
		}
	}
	clear(r.pays)
}

// poisonSubs is the submessage count of a poison frame: a bare frame
// header RunSum sends in place of every remaining frame once one of its
// frame checks has failed. No real frame can claim that many submessages.
const poisonSubs = math.MaxInt32

// errPoisoned reports a poison frame: the sender, or a rank upstream of
// it, failed a frame check earlier in the same exchange.
var errPoisoned = errors.New("sender abandoned the exchange after an earlier frame check failed")

// checkFrameHeader validates the fixed parts of a compiled inbound frame:
// total length, endpoints, submessage count and the reserved word. The
// per-slot sub-headers are scatter's to check.
func checkFrameHeader(raw []byte, from, to int, size, nsubs int32) error {
	if len(raw) == msg.MsgHeaderLen {
		if _, _, n, err := msg.ReadFrameHeader(raw); err == nil && n == poisonSubs {
			return errPoisoned
		}
	}
	if int32(len(raw)) != size {
		return fmt.Errorf("frame has %d bytes, learned layout expects %d", len(raw), size)
	}
	gotFrom, gotTo, gotNsubs, err := msg.ReadFrameHeader(raw)
	if err != nil {
		return err
	}
	if gotFrom != from {
		return fmt.Errorf("frame claims sender %d, transport delivered from %d", gotFrom, from)
	}
	if gotTo != to {
		return fmt.Errorf("misrouted frame for rank %d", gotTo)
	}
	if int32(gotNsubs) != nsubs {
		return fmt.Errorf("frame carries %d submessages, learned layout expects %d", gotNsubs, nsubs)
	}
	return nil
}

// gatherFloats writes x[idx[i]] as little-endian float64s into dst
// (len(dst) == 8*len(idx)), through a zero-copy view when dst is aligned.
func gatherFloats(dst []byte, x []float64, idx []int32) {
	if v, ok := msg.Float64View(dst); ok {
		for i, g := range idx {
			v[i] = x[g]
		}
		return
	}
	for i, g := range idx {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x[g]))
	}
}

// putFloats writes src as little-endian float64s into dst (len(dst) >=
// 8*len(src)), through a zero-copy view when dst is aligned.
func putFloats(dst []byte, src []float64) {
	if v, ok := msg.Float64View(dst[:8*len(src)]); ok {
		copy(v, src)
		return
	}
	for i, f := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(f))
	}
}

// scatterFloats copies little-endian float64 payload bytes into dst
// (len(src) == 8*len(dst)), through a zero-copy view when src is aligned.
func scatterFloats(dst []float64, src []byte) {
	if v, ok := msg.Float64View(src); ok {
		copy(dst, v)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}
