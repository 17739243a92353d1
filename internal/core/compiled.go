// Compiled iteration programs: the second specialization tier above
// Persistent. A Persistent replay still pays the caller's payload map,
// frame encoding and decoding, and a per-value byte codec; Compile turns
// the learned pattern into a fully indexed program under the assumption
// that payload *sizes* are fixed across iterations (the iterative-solver
// case: one float64 per matrix column shipped, every iteration, to the same
// ranks). The program owns precomputed frame sizes and submessage offsets,
// and writes every byte of an outgoing frame exactly once per iteration:
//
//   - header: the 16-byte frame header, from the frame's destination and
//     submessage count,
//   - gather: this rank's own submessages — a sub-header, then x[idx]
//     float64s written straight into the pooled frame buffer,
//   - forward: one memcpy per forwarded submessage, sub-header and payload
//     together, from a retained inbound frame — the inbound header is the
//     one the outgoing frame needs, so forwarded bytes are never decoded or
//     re-encoded,
//   - scatter: copy delivered payload regions straight into the caller's
//     halo slice at precomputed word offsets,
//   - sum lane (RunSum only): the caller's reduction words, appended after
//     the frame body and folded stage by stage in digit order, so one
//     exchange is also an allreduce.
//
// Both wire headers are 16 bytes and every payload is word-sized, so every
// payload sits on an 8-byte boundary of its (pooled, aligned) frame buffer
// and gather and scatter move float64s through msg.Float64View on a
// little-endian host.
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
	haloWords int // required len(halo) in Run
	selfs     []selfOp
	stages    []rStage
	// lane is set by a store-and-forward lowering, whose every stage sends
	// a frame to and receives one from each dimension neighbour — what
	// RunSum's fold needs. A direct replay leaves it false.
	lane bool
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
	recvFrom []int   // expected senders, learning receive order
	inIdx    []int32 // retention slot per sender (index into inFrames)
	inSize   []int32 // expected frame byte length per sender
	inNsubs  []int32 // expected submessage count per sender
	delivers [][]deliverOp
	// fold lists the stage's sum-lane contributions in the digit order of
	// its dimension: an index into recvFrom, or -1 for this rank's own.
	fold []int32
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
// sub-header, then x[idx[i]] as little-endian float64s at off+SubHeaderLen.
type gatherOp struct {
	off, dst int32
	idx      []int32
}

// fwdOp copies one forwarded submessage, n bytes of sub-header and payload,
// from retained inbound frame `frame` at srcOff into the outgoing frame at
// dstOff. The inbound sub-header already names the slot's source,
// destination and length, so it is copied, never re-encoded.
type fwdOp struct {
	dstOff, srcOff, n int32
	frame             int32
}

// deliverOp copies `words` float64s from an inbound frame at srcOff into
// halo[haloOff:].
type deliverOp struct {
	srcOff, haloOff, words int32
}

// selfOp scatters this rank's own payload to itself: halo[haloOff+i] =
// x[idx[i]], no bytes involved.
type selfOp struct {
	idx     []int32
	haloOff int32
}

type slotLoc struct {
	frame, off int32
}

// Compile lowers the learned StageSchedule (Persistent.Schedule — the same
// IR the stage machine executes in Run) into a new Replay, under the added
// assumption of fixed payload sizes: destination dst's payload is always
// the float64s x[gather[dst][0]], x[gather[dst][1]], ... read from the x
// slice passed to Run. The lowering keeps the schedule's stage skeleton —
// tags, send slots in send order, inbound sender sets — and specializes
// every slot into precomputed byte offsets: in-place header writes replace
// encoding, memcpys replace Run's slot table, and halo offsets replace the
// delivered submessages. gather must cover exactly the learned
// destinations, and each list's byte size (8 per index) must equal the
// learning run's payload size for that destination; every payload routed
// through this rank must be word-sized. The gather lists are retained by
// the Replay and must not be mutated afterwards.
//
// Deliveries are scattered into Run's halo slice in the learned delivery
// order (sorted by source rank), one contiguous word block per source.
func (p *Persistent) Compile(xlen int, gather map[int][]int32) (*Replay, error) {
	r := &Replay{}
	if err := p.lower(r, xlen, gather); err != nil {
		return nil, err
	}
	return r, nil
}

// lower writes the learned schedule into r: the halo layout and self ops,
// then per stage one frame program per send slot and the receive metadata
// and deliver ops per inbound frame. Every slice r already holds — stages,
// op tables, inbound metadata, inFrames — is reused up to its
// capacity, so lowering into an existing Replay of the same skeleton
// allocates only the lowering's own maps and the traffic hint. The gather
// contract is checked before r is touched; a later error (a non-word
// payload, a slot without a source) leaves r unusable until a lowering
// succeeds.
func (p *Persistent) lower(r *Replay, xlen int, gather map[int][]int32) error {
	me := p.rank
	if err := p.checkGather(xlen, gather); err != nil {
		return err
	}
	r.me, r.size, r.xlen = me, p.topo.Size(), xlen
	r.pol.Arrival = true
	r.lane = true

	// Halo: one contiguous word block per delivery, in the learned order.
	// Self deliveries come straight from x; every other one is bound to an
	// inbound frame region by layoutInbound.
	haloOff := make(map[slotKey]int32, len(p.deliver))
	bound := make(map[slotKey]bool, len(p.deliver))
	r.haloWords = 0
	r.selfs = r.selfs[:0]
	for _, k := range p.deliver {
		n := p.sizes[k]
		if n%8 != 0 {
			return fmt.Errorf("core: compile: delivery %d->%d has %d bytes, compiled replays require word-sized payloads", k.src, k.dst, n)
		}
		haloOff[k] = int32(r.haloWords)
		if k.src == int32(me) {
			r.selfs = append(r.selfs, selfOp{idx: gather[int(k.dst)], haloOff: haloOff[k]})
			bound[k] = true
		}
		r.haloWords += n / 8
	}

	// inLoc is the retained-frame location of every slot received for
	// forwarding, filled stage by stage before later stages read it.
	inLoc := make(map[slotKey]slotLoc)
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
			var slots []slotKey
			if nf := p.nbrFrames[d][j]; nf.f != nil {
				slots = nf.f.slots
			}
			if err := p.lowerFrame(&st.frames[j], slot.To, slots, gather, inLoc); err != nil {
				return fmt.Errorf("core: compile: stage %d frame to %d: %w", d, slot.To, err)
			}
		}

		// Inbound frames: register forwarded slots for later stages and
		// bind deliveries to their frame regions.
		n := len(ss.RecvFrom)
		st.recvFrom = append(st.recvFrom[:0], ss.RecvFrom...)
		st.inIdx = resize(st.inIdx, n)
		st.inSize = resize(st.inSize, n)
		st.inNsubs = resize(st.inNsubs, n)
		st.delivers = resize(st.delivers, n)
		for j := range ss.RecvFrom {
			st.inIdx[j] = nextFrame
			nextFrame++
			p.layoutInbound(st, d, j, haloOff, inLoc, bound)
		}
		if err := p.lowerFold(st); err != nil {
			return fmt.Errorf("core: compile: stage %d: %w", d, err)
		}
	}
	for _, k := range p.deliver {
		if !bound[k] {
			return fmt.Errorf("core: compile: delivery %d->%d has no inbound frame slot", k.src, k.dst)
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

// layoutInbound walks the learned slots of stage d's j-th inbound frame in
// wire order and rewrites st's view of it: slot count, byte size, a
// deliverOp for every slot addressed to this rank (marked in bound), and in
// inLoc the retained-frame location of every slot to be forwarded in a
// later stage — the offset of its sub-header, which travels with it.
// st.inIdx[j] must already name the frame.
func (p *Persistent) layoutInbound(st *rStage, d, j int, haloOff map[slotKey]int32, inLoc map[slotKey]slotLoc, bound map[slotKey]bool) {
	slots := p.inLayout[d][j]
	st.inNsubs[j] = int32(len(slots))
	st.delivers[j] = st.delivers[j][:0]
	fo := int32(msg.MsgHeaderLen)
	for _, k := range slots {
		n := int32(p.sizes[k])
		payloadOff := fo + msg.SubHeaderLen
		if k.dst == int32(p.rank) {
			st.delivers[j] = append(st.delivers[j], deliverOp{srcOff: payloadOff, haloOff: haloOff[k], words: n / 8})
			bound[k] = true
		} else {
			inLoc[k] = slotLoc{frame: st.inIdx[j], off: fo}
		}
		fo = payloadOff + n
	}
	st.inSize[j] = fo
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
	me := p.rank
	if len(gather) != len(p.dests) {
		return fmt.Errorf("core: compile: %d gather lists for %d learned destinations", len(gather), len(p.dests))
	}
	for dst, idx := range gather {
		if _, ok := p.dests[dst]; !ok {
			return fmt.Errorf("core: compile: destination %d not in the learned pattern", dst)
		}
		want := p.sizes[slotKey{src: int32(me), dst: int32(dst)}]
		if 8*len(idx) != want {
			return fmt.Errorf("core: compile: destination %d gathers %d words, learned payload is %d bytes",
				dst, len(idx), want)
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
// tables: the frame's size and submessage count, then one op per slot in
// wire order — a gather for this rank's own payloads, a forward copy of
// sub-header and payload for every other slot.
func (p *Persistent) lowerFrame(f *rFrame, to int, slots []slotKey, gather map[int][]int32, inLoc map[slotKey]slotLoc) error {
	me := p.rank
	f.to = to
	f.nsubs = int32(len(slots))
	f.gathers = f.gathers[:0]
	f.fwds = f.fwds[:0]
	off := int32(msg.MsgHeaderLen)
	for _, k := range slots {
		n := int32(msg.SubHeaderLen + p.sizes[k])
		if k.src == int32(me) {
			f.gathers = append(f.gathers, gatherOp{off: off, dst: k.dst, idx: gather[int(k.dst)]})
		} else {
			l, ok := inLoc[k]
			if !ok {
				return fmt.Errorf("forwarded slot %d->%d not received in an earlier stage", k.src, k.dst)
			}
			f.fwds = append(f.fwds, fwdOp{dstOff: off, frame: l.frame, srcOff: l.off, n: n})
		}
		off += n
	}
	f.size = off
	return nil
}

// NewDirectReplay compiles the baseline (BL) iteration for one rank: one
// direct frame per destination carrying the float64s x[gather[dst]], and
// one expected frame from every source in srcWords (mapping source rank to
// its payload word count). Deliveries land in Run's halo slice sorted by
// source rank, matching the store-and-forward Replay's halo layout for the
// same pattern. A self payload is declared via gather[me] only; srcWords
// must not list the rank itself. Collective with the other ranks' replays,
// like DirectExchange.
func NewDirectReplay(me, size, xlen int, gather map[int][]int32, srcWords map[int]int) (*Replay, error) {
	if me < 0 || me >= size {
		return nil, fmt.Errorf("core: direct replay rank %d out of range [0,%d)", me, size)
	}
	r := &Replay{me: me, size: size, xlen: xlen, pol: runtime.RecvPolicy{Arrival: true}}
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
	haloAt := int32(0)
	for _, src := range srcs {
		if src == me {
			r.selfs = append(r.selfs, selfOp{idx: gather[me], haloOff: haloAt})
			haloAt += int32(len(gather[me]))
			continue
		}
		words := int32(srcWords[src])
		st.recvFrom = append(st.recvFrom, src)
		st.inIdx = append(st.inIdx, int32(len(st.recvFrom)-1))
		st.inNsubs = append(st.inNsubs, 1)
		st.inSize = append(st.inSize, int32(msg.MsgHeaderLen+msg.SubHeaderLen)+8*words)
		st.delivers = append(st.delivers, []deliverOp{{srcOff: msg.MsgHeaderLen + msg.SubHeaderLen, haloOff: haloAt, words: words}})
		haloAt += words
	}
	r.haloWords = int(haloAt)

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
func (r *Replay) HaloWords() int { return r.haloWords }

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
// A frame that fails its header or length check does not end the call at
// once: the rank drains the stage, then sends a poison frame wherever a
// later stage expects one and drains those stages too, so the error
// reaches every rank the failing one would have reached and no rank is
// left waiting for a frame. It returns the first such error.
func (r *Replay) RunSum(c runtime.Comm, x, halo, sum []float64) error {
	if c.Rank() != r.me || c.Size() != r.size {
		return fmt.Errorf("core: replay bound to rank %d of %d", r.me, r.size)
	}
	if len(x) != r.xlen {
		return fmt.Errorf("core: replay compiled for len(x)=%d, got %d", r.xlen, len(x))
	}
	if len(halo) != r.haloWords {
		return fmt.Errorf("core: replay delivers %d words, halo has %d", r.haloWords, len(halo))
	}
	if sum != nil && !r.lane {
		return fmt.Errorf("core: rank %d: a direct replay carries no sum lane", r.me)
	}
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
		dst := halo[s.haloOff : int(s.haloOff)+len(s.idx)]
		for i, g := range s.idx {
			dst[i] = x[g]
		}
	}
	if tr != nil {
		mark = tr.SpanMark(telemetry.KGather, -1, -1, mark)
	}

	retains := runtime.SendRetains(c)
	var bad error // the first failed frame check; later stages poison
	for si := range r.stages {
		st := &r.stages[si]
		fwdSubs, fwdBytes := 0, 0
		for fi := range st.frames {
			f := &st.frames[fi]
			var buf []byte
			if bad != nil {
				buf = msg.GetFrameLen(msg.MsgHeaderLen)
				msg.PutFrameHeader(buf, r.me, f.to, poisonSubs)
			} else {
				buf = msg.GetFrameLen(int(f.size + laneBytes))
				msg.PutFrameHeader(buf, r.me, f.to, int(f.nsubs))
				for _, g := range f.gathers {
					n := 8 * len(g.idx)
					msg.PutSubHeader(buf[g.off:], r.me, int(g.dst), n)
					payload := int(g.off) + msg.SubHeaderLen
					gatherFloats(buf[payload:payload+n], x, g.idx)
				}
				for _, fw := range f.fwds {
					copy(buf[fw.dstOff:fw.dstOff+fw.n], r.inFrames[fw.frame][fw.srcOff:fw.srcOff+fw.n])
					fwdSubs++
					fwdBytes += int(fw.n) - msg.SubHeaderLen
				}
				if laneBytes > 0 {
					putFloats(buf[f.size:], sum)
				}
			}
			err := c.Send(f.to, st.tag, buf)
			if !retains {
				msg.PutFrame(buf)
			}
			if err != nil {
				return fmt.Errorf("core: rank %d replay stage %d send to %d: %w", r.me, si, f.to, err)
			}
		}
		if r.tele != nil && fwdSubs > 0 {
			r.tele.CountForward(si, fwdSubs, fwdBytes)
		}
		if tr != nil {
			mark = tr.SpanMark(telemetry.KForward, si, -1, mark)
		}

		r.pol.Reset(st.recvFrom)
		last := -1
		for r.pol.Outstanding() > 0 {
			from, raw, err := r.pol.Next(c, st.tag)
			if err != nil {
				return fmt.Errorf("core: rank %d replay stage %d recv: %w", r.me, si, err)
			}
			last = from
			j := slices.Index(st.recvFrom, from)
			if j < 0 {
				msg.PutFrame(raw)
				return fmt.Errorf("core: rank %d replay stage %d: frame from unexpected sender %d", r.me, si, from)
			}
			if bad != nil {
				msg.PutFrame(raw)
				continue
			}
			if err := checkFrameHeader(raw, from, r.me, st.inSize[j]+laneBytes, st.inNsubs[j]); err != nil {
				msg.PutFrame(raw)
				bad = fmt.Errorf("core: rank %d replay stage %d frame from %d: %w", r.me, si, from, err)
				continue
			}
			r.inFrames[st.inIdx[j]] = raw
			for _, dv := range st.delivers[j] {
				scatterFloats(halo[dv.haloOff:dv.haloOff+dv.words], raw[dv.srcOff:dv.srcOff+8*dv.words])
			}
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

// foldLane replaces each word of sum with the stage line's total of it:
// the lanes after the bodies of the stage's retained inbound frames and
// this rank's own word, added in st.fold's digit order.
func (r *Replay) foldLane(st *rStage, sum []float64) {
	for w, own := range sum {
		var acc float64
		for i, j := range st.fold {
			v := own
			if j >= 0 {
				at := st.inSize[j] + int32(8*w)
				v = math.Float64frombits(binary.LittleEndian.Uint64(r.inFrames[st.inIdx[j]][at:]))
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

// release recycles the retained inbound frames into the arena and clears
// the retention table for the next iteration.
func (r *Replay) release() {
	for i, b := range r.inFrames {
		if b != nil {
			msg.PutFrame(b)
			r.inFrames[i] = nil
		}
	}
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
// per-slot layout is trusted — it is pinned by the sender's compiled
// program, and forwarded sub-headers travel on unchanged.
func checkFrameHeader(raw []byte, from, to int, size, nsubs int32) error {
	if len(raw) == msg.MsgHeaderLen {
		if _, _, n, err := msg.ReadFrameHeader(raw); err == nil && n == poisonSubs {
			return errPoisoned
		}
	}
	if int32(len(raw)) != size {
		return fmt.Errorf("frame has %d bytes, compiled layout expects %d", len(raw), size)
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
		return fmt.Errorf("frame carries %d submessages, compiled layout expects %d", gotNsubs, nsubs)
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
