package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

// sentKey addresses one frame of one exchange: its tag and endpoints.
type sentKey struct{ tag, from, to int }

// frameRecorder keeps a copy of every frame a world sends, so a test can
// compare the bytes on the wire against an independent encoding.
type frameRecorder struct {
	mu     sync.Mutex
	frames map[sentKey][]byte
}

func (fr *frameRecorder) wrapAll(comms []runtime.Comm) []runtime.Comm {
	fr.frames = map[sentKey][]byte{}
	out := make([]runtime.Comm, len(comms))
	for i, c := range comms {
		out[i] = &recordingComm{Passthrough: runtime.Passthrough{Comm: c}, rec: fr}
	}
	return out
}

type recordingComm struct {
	runtime.Passthrough
	rec *frameRecorder
}

func (rc *recordingComm) Send(to, tag int, payload []byte) error {
	rc.rec.mu.Lock()
	rc.rec.frames[sentKey{tag, rc.Rank(), to}] = append([]byte(nil), payload...)
	rc.rec.mu.Unlock()
	return rc.Comm.Send(to, tag, payload)
}

// RecvAnyOf keeps the wrapped transport's arrival order: recording
// intercepts sends only.
func (rc *recordingComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	return runtime.RecvAnyOf(rc.Comm, tag, from)
}

// floatBytes encodes x[idx[i]] as little-endian float64s: the payload a
// rank ships for one gather list.
func floatBytes(x []float64, idx []int32) []byte {
	b := make([]byte, 0, 8*len(idx))
	for _, g := range idx {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x[g]))
	}
	return b
}

// distinctX returns per-rank x vectors whose words differ across ranks and
// positions, so a payload copied from the wrong place shows.
func distinctX(K, xlen int) [][]float64 {
	xs := make([][]float64, K)
	for me := range xs {
		xs[me] = make([]float64, xlen)
		for i := range xs[me] {
			xs[me][i] = float64(me)*1e4 + float64(i) + 0.25
		}
	}
	return xs
}

// runRecorded runs every rank's Replay once on a recording chanpt world.
func runRecorded(t *testing.T, reps []*Replay, xs [][]float64) map[sentKey][]byte {
	t.Helper()
	w, err := chanpt.NewWorld(len(reps), 2)
	if err != nil {
		t.Fatal(err)
	}
	var rec frameRecorder
	err = runtime.Run(rec.wrapAll(w.Comms()), func(c runtime.Comm) error {
		me := c.Rank()
		return reps[me].Run(c, xs[me], make([]float64, reps[me].HaloWords()))
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.frames
}

// churnWorld builds the churn-chan workload's shape on synthWorld — K=64 on
// T3(4,4,4), 8 destinations × 32–255 words per rank — compiles every rank,
// then applies one Patch removing 8 pairs and lowers it with PatchCompiled.
// It returns the patched world, its replays and the gather lists they use.
func churnWorld(t testing.TB, xlen int) ([]*Persistent, []*Replay, []map[int][]int32) {
	const K = 64
	tp := vpt.MustNew(4, 4, 4)
	rng := rand.New(rand.NewSource(K))
	pairs, order := churnPairs(rng, K)
	var remove []PatchPair
	for _, i := range rng.Perm(len(order))[:8] {
		remove = append(remove, PatchPair{Src: order[i].src, Dst: order[i].dst, Remove: true})
	}
	world := synthWorld(tp, pairs)
	reps := make([]*Replay, K)
	for me, p := range world {
		var err error
		if reps[me], err = p.Compile(xlen, synthGather(p, xlen)); err != nil {
			t.Fatalf("rank %d: compile: %v", me, err)
		}
	}
	deltas := synthDeltas(tp, remove)
	gathers := make([]map[int][]int32, K)
	for me, p := range world {
		st, err := p.Patch(deltas[me])
		if err != nil {
			t.Fatalf("rank %d: patch: %v", me, err)
		}
		gathers[me] = synthGather(p, xlen)
		if err := p.PatchCompiled(reps[me], xlen, gathers[me], st); err != nil {
			t.Fatalf("rank %d: patch-compile: %v", me, err)
		}
	}
	return world, reps, gathers
}

// TestCompiledFramesMatchEncode holds every frame a compiled Replay builds
// in place — header written by Run, own submessages by gather ops,
// forwarded ones copied header and all from inbound frames — to msg.Encode
// of the submessages the learned layout carries, byte for byte. The
// store-and-forward case is churn-chan's shape after a Patch and
// PatchCompiled, so forwarded sub-headers cross patched frames; the direct
// case is NewDirectReplay on the same pattern; the bytes case is the byte
// replay Persistent.Run lowers, on payloads of 1, 12 and 256 bytes, whose
// traffic hint must also name every frame's peer.
func TestCompiledFramesMatchEncode(t *testing.T) {
	const xlen = 256
	world, reps, gathers := churnWorld(t, xlen)
	K := len(world)
	xs := distinctX(K, xlen)
	// payload returns the bytes the origin of slot k ships for it.
	payload := func(k slotKey) []byte { return floatBytes(xs[k.src], gathers[k.src][int(k.dst)]) }

	t.Run("store-and-forward", func(t *testing.T) {
		got := runRecorded(t, reps, xs)
		want := 0
		for me, p := range world {
			for d, outs := range p.outs {
				for j, to := range p.topo.Neighbors(nil, me, d) {
					m := msg.Message{From: me, To: to}
					for _, i := range outs[j] {
						k := p.pairs[i].k
						m.Subs = append(m.Subs, msg.Submessage{Src: int(k.src), Dst: int(k.dst), Data: payload(k)})
					}
					want++
					raw, ok := got[sentKey{StageTag(d), me, to}]
					if !ok {
						t.Fatalf("rank %d stage %d: no frame sent to %d", me, d, to)
					}
					if enc := msg.Encode(nil, &m); !bytes.Equal(raw, enc) {
						t.Fatalf("rank %d stage %d frame to %d: compiled %d bytes differ from Encode's %d",
							me, d, to, len(raw), len(enc))
					}
				}
			}
		}
		if len(got) != want {
			t.Fatalf("world sent %d frames, the learned layout has %d", len(got), want)
		}
	})

	t.Run("direct", func(t *testing.T) {
		srcWords := make([]map[int]int, K)
		for me := range srcWords {
			srcWords[me] = map[int]int{}
		}
		for src, g := range gathers {
			for dst, idx := range g {
				srcWords[dst][src] = len(idx)
			}
		}
		direct := make([]*Replay, K)
		for me := range direct {
			var err error
			if direct[me], err = NewDirectReplay(me, K, xlen, gathers[me], srcWords[me]); err != nil {
				t.Fatal(err)
			}
		}
		got := runRecorded(t, direct, xs)
		want := 0
		for me, g := range gathers {
			for dst, idx := range g {
				want++
				m := msg.Message{From: me, To: dst, Subs: []msg.Submessage{{Src: me, Dst: dst, Data: floatBytes(xs[me], idx)}}}
				if enc := msg.Encode(nil, &m); !bytes.Equal(got[sentKey{tagBase - 1, me, dst}], enc) {
					t.Fatalf("direct frame %d->%d differs from Encode", me, dst)
				}
			}
		}
		if len(got) != want {
			t.Fatalf("direct world sent %d frames, want %d", len(got), want)
		}
	})

	t.Run("bytes", func(t *testing.T) {
		tp := vpt.MustNew(4, 4, 4)
		rng := rand.New(rand.NewSource(36))
		dests := make([][]int, K)
		for src := range dests {
			dests[src] = rng.Perm(K)[:8]
		}
		// payloads returns every rank's payloads of one round: 1, 12 or 256
		// bytes per pair, bytes varying with the round.
		payloads := func(round int) []map[int][]byte {
			out := make([]map[int][]byte, K)
			for src, ds := range dests {
				out[src] = map[int][]byte{}
				for _, dst := range ds {
					b := make([]byte, []int{1, 12, 256}[(src+dst)%3])
					for i := range b {
						b[i] = byte(src*7 + dst*13 + i + round)
					}
					out[src][dst] = b
				}
			}
			return out
		}
		learn, replay := payloads(0), payloads(1)
		w, err := chanpt.NewWorld(K, 2)
		if err != nil {
			t.Fatal(err)
		}
		var rec frameRecorder
		comms := rec.wrapAll(w.Comms())
		ps := make([]*Persistent, K)
		err = runtime.Run(comms, func(c runtime.Comm) error {
			var err error
			ps[c.Rank()], _, err = NewPersistent(c, tp, learn[c.Rank()])
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		rec.frames = map[sentKey][]byte{}
		err = runtime.Run(comms, func(c runtime.Comm) error {
			_, err := ps[c.Rank()].Run(c, replay[c.Rank()])
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for me, p := range ps {
			hint := p.rp.traffic
			for d := range p.outs {
				nbrs := p.topo.Neighbors(nil, me, d)
				for j, to := range nbrs {
					m := msg.Message{From: me, To: to}
					rows := p.outs[d][j]
					for _, i := range rows {
						k := p.pairs[i].k
						m.Subs = append(m.Subs, msg.Submessage{Src: int(k.src), Dst: int(k.dst), Data: replay[k.src][int(k.dst)]})
					}
					want++
					if enc := msg.Encode(nil, &m); !bytes.Equal(rec.frames[sentKey{StageTag(d), me, to}], enc) {
						t.Fatalf("rank %d stage %d frame to %d differs from Encode", me, d, to)
					}
					if h := hint[d].Sends[j]; h.Peer != to || h.Frames != 1 {
						t.Fatalf("rank %d stage %d: send hint %+v, want one frame to %d", me, d, h, to)
					}
				}
				for j, from := range nbrs {
					if h := hint[d].Recvs[j]; h.Peer != from || h.Frames != 1 {
						t.Fatalf("rank %d stage %d: receive hint %+v, want one frame from %d", me, d, h, from)
					}
				}
			}
		}
		if len(rec.frames) != want {
			t.Fatalf("world sent %d frames, the learned layout has %d", len(rec.frames), want)
		}
	})
}

// TestCompiledPayloadsAligned checks the lowering puts every payload on an
// 8-byte boundary of its frame: gather and forward payloads in outgoing
// frames, forward sources and deliveries in inbound ones. Together with
// 8-byte aligned pool buffers this is what lets gather and scatter always
// take the Float64View path on a little-endian host.
func TestCompiledPayloadsAligned(t *testing.T) {
	const xlen = 256
	_, reps, gathers := churnWorld(t, xlen)
	direct, err := NewDirectReplay(0, len(reps), xlen, gathers[0], map[int]int{1: 3, 2: 5})
	if err != nil {
		t.Fatal(err)
	}
	aligned := func(off int32) bool { return off%8 == 0 }
	for me, r := range append(reps, direct) {
		for d, st := range r.stages {
			for _, f := range st.frames {
				for _, g := range f.gathers {
					if !aligned(g.off + msg.SubHeaderLen) {
						t.Fatalf("replay %d stage %d frame to %d: gather payload at offset %d", me, d, f.to, g.off+msg.SubHeaderLen)
					}
				}
				for _, fw := range f.fwds {
					if !aligned(fw.srcOff+msg.SubHeaderLen) || !aligned(fw.dstOff+msg.SubHeaderLen) {
						t.Fatalf("replay %d stage %d frame to %d: forward payload from offset %d to %d",
							me, d, f.to, fw.srcOff+msg.SubHeaderLen, fw.dstOff+msg.SubHeaderLen)
					}
				}
			}
			for j, in := range st.ins {
				for _, dv := range in.delivers {
					if !aligned(dv.srcOff) || !aligned(dv.at) {
						t.Fatalf("replay %d stage %d frame from %d: delivery from offset %d to %d", me, d, st.recvFrom[j], dv.srcOff, dv.at)
					}
				}
			}
		}
	}
}

// TestCheckFrameHeaderRejectsReserved: a compiled replay refuses an inbound
// frame whose header has a nonzero reserved word, as msg.Decode does.
func TestCheckFrameHeaderRejectsReserved(t *testing.T) {
	raw := msg.Encode(nil, &msg.Message{From: 2, To: 5, Subs: []msg.Submessage{{Src: 2, Dst: 5, Data: make([]byte, 8)}}})
	if err := checkFrameHeader(raw, 2, 5, int32(len(raw)), 1); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	raw[msg.MsgHeaderLen-1] = 1
	if err := checkFrameHeader(raw, 2, 5, int32(len(raw)), 1); !errors.Is(err, msg.ErrReserved) {
		t.Fatalf("nonzero reserved word: err = %v, want msg.ErrReserved", err)
	}
}

// TestReplaySlotChecks: a replay holds every inbound sub-header to its
// learned slot — source and destination, length, reserved word — where it
// consumes the slot: deliver checks a delivered slot before copying its
// payload to its offset, and slotOK is the check a forward op makes.
func TestReplaySlotChecks(t *testing.T) {
	// The learned frame from rank 2: a 3-byte slot 3->5 delivered here, then
	// a 5-byte slot 4->6 forwarded later.
	in := &rIn{nsubs: 2, delivers: []deliverOp{{hdr: subHdrWord(slotKey{src: 3, dst: 5}), srcOff: 2 * msg.SubHeaderLen, at: 0, n: 3}}}
	fwd := slotKey{src: 4, dst: 6}
	frame := func(subs ...msg.Submessage) []byte {
		return msg.Encode(nil, &msg.Message{From: 2, To: 5, Subs: subs})
	}
	learned := frame(msg.Submessage{Src: 3, Dst: 5, Data: []byte("abc")}, msg.Submessage{Src: 4, Dst: 6, Data: []byte("fwd!!")})
	r := &Replay{bytes: true, arena: make([]byte, 3)}
	if err := r.deliver(in, learned, nil); err != nil {
		t.Fatalf("learned frame rejected: %v", err)
	}
	if string(r.arena) != "abc" {
		t.Fatalf("delivered %q, want %q", r.arena, "abc")
	}
	if sub := learned[2*msg.SubHeaderLen+3:]; !slotOK(sub, subHdrWord(fwd)) {
		t.Fatalf("learned forwarded slot rejected: %v", slotMismatch(sub, subHdrWord(fwd)))
	}
	for _, c := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"misrouted", frame(msg.Submessage{Src: 3, Dst: 6, Data: []byte("abc")}, msg.Submessage{Src: 4, Dst: 6, Data: []byte("fwd!!")}), "misrouted submessage 3->6 (learned slot 3->5)"},
		{"length", frame(msg.Submessage{Src: 3, Dst: 5, Data: []byte("abcd")}, msg.Submessage{Src: 4, Dst: 6, Data: []byte("fwd!")}), "submessage 3->5 carries 4 bytes, learned layout has 3"},
	} {
		if err := r.deliver(in, c.raw, nil); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// The forwarded slot, cut at its learned offset and length.
	bad := frame(msg.Submessage{Src: 3, Dst: 5, Data: []byte("abc")}, msg.Submessage{Src: 4, Dst: 7, Data: []byte("fwd!!")})
	if sub := bad[2*msg.SubHeaderLen+3:]; slotOK(sub, subHdrWord(fwd)) {
		t.Error("misrouted forwarded slot accepted")
	}
	reserved := append([]byte(nil), learned...)
	reserved[2*msg.SubHeaderLen-1] = 1
	if err := r.deliver(in, reserved, nil); !errors.Is(err, msg.ErrReserved) {
		t.Errorf("nonzero reserved word: err = %v, want msg.ErrReserved", err)
	}
}

// BenchmarkReplayRun times one world-wide compiled Replay.Run in the shape
// of the churn-chan benchmark workload — K=64 on T3(4,4,4), 8 destinations
// × 32–255 words per rank, synthWorld's pattern — on chanpt, ranks stepped
// in lock step. It is the handle for profiling the compiled replay alone;
// a steady-state Run allocates nothing, so allocs/op reads 0.
//
//	go test -run '^$' -bench ReplayRun -benchmem -cpuprofile cpu.out ./internal/core/
func BenchmarkReplayRun(b *testing.B) {
	const xlen = 256
	_, reps, _ := churnWorld(b, xlen)
	K := len(reps)
	xs := distinctX(K, xlen)
	halos := make([][]float64, K)
	for me, r := range reps {
		halos[me] = make([]float64, r.HaloWords())
	}
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		b.Fatal(err)
	}
	step, stop := tptest.Lockstep(w.Comms(), func(c runtime.Comm, _ int) error {
		me := c.Rank()
		return reps[me].Run(c, xs[me], halos[me])
	})
	defer stop()
	// Warm the frame arena and the matcher queues to their high-water
	// marks, so even a short run (CI's 20 ops) reads the steady state.
	for i := 0; i < 50; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLearningFramesSorted holds the learning run to the layout rule on
// the wire, and the replayed layout to the learning run: behind a
// shuffleComm, which serves every stage's receives in a random order of its
// own, every frame a learning run sends lists its submessages in strictly
// ascending (src, dst) order; two learning runs of one pattern under
// different service orders send the same bytes in every frame; and the
// first Run after each, with the same payloads, sends every stage frame
// the learning run sent, byte for byte. The learning run routes frames as
// they land, so it is the oracle for the layout the replay is lowered
// from, whatever that layout is kept in. The worlds are T3(4,4,4),
// a factored mixed-radix topology, and one whose ranks send to themselves
// and send zero-length payloads.
func TestLearningFramesSorted(t *testing.T) {
	sets := func(s *SendSets) func(me int) map[int][]byte {
		return func(me int) map[int][]byte {
			payloads := map[int][]byte{}
			for _, pr := range s.Sets[me] {
				payloads[pr.Dst] = payloadWords(me, pr.Dst, pr.Words)
			}
			return payloads
		}
	}
	factored, err := vpt.NewFactored(48, 3)
	if err != nil {
		t.Fatal(err)
	}
	// selfZero: every rank sends itself 3 words, a zero-length payload to
	// the next two ranks and 1–4 words to five random ones.
	selfZero := func(K int) func(me int) map[int][]byte {
		rng := rand.New(rand.NewSource(44))
		dests := make([][]int, K)
		for me := range dests {
			dests[me] = rng.Perm(K)[:5]
		}
		return func(me int) map[int][]byte {
			payloads := map[int][]byte{me: payloadWords(me, me, 3)}
			for _, dst := range dests[me] {
				payloads[dst] = payloadWords(me, dst, int64(1+(me+dst)%4))
			}
			payloads[(me+1)%K] = []byte{}
			payloads[(me+2)%K] = nil
			return payloads
		}
	}
	for _, w := range []struct {
		name     string
		tp       *vpt.Topology
		payloads func(me int) map[int][]byte
	}{
		{"T3(4,4,4)", vpt.MustNew(4, 4, 4), sets(randomSendSets(rand.New(rand.NewSource(43)), 64, 2, 3, 4))},
		{"factored " + factored.String(), factored, sets(randomSendSets(rand.New(rand.NewSource(45)), 48, 2, 3, 4))},
		{"self-sends and zero-length payloads", vpt.MustNew(4, 4), selfZero(16)},
	} {
		t.Run(w.name, func(t *testing.T) {
			a, b := learnAndReplayFrames(t, w.tp, w.payloads, 1), learnAndReplayFrames(t, w.tp, w.payloads, 2)
			if len(a) != len(b) {
				t.Fatalf("the learning runs sent %d and %d frames", len(a), len(b))
			}
			multi := 0
			for key, raw := range a {
				m, err := msg.Decode(raw)
				if err != nil {
					t.Fatalf("frame %+v: %v", key, err)
				}
				for i := 1; i < len(m.Subs); i++ {
					p, q := m.Subs[i-1], m.Subs[i]
					if p.Src > q.Src || p.Src == q.Src && p.Dst >= q.Dst {
						t.Fatalf("frame %+v: submessage %d->%d before %d->%d", key, p.Src, p.Dst, q.Src, q.Dst)
					}
				}
				if len(m.Subs) > 1 {
					multi++
				}
				if !bytes.Equal(raw, b[key]) {
					t.Fatalf("frame %+v differs between two learning runs", key)
				}
			}
			if multi == 0 {
				t.Fatal("no frame carries more than one submessage")
			}
		})
	}
}

// learnAndReplayFrames runs a learning run of payloads on a chanpt world
// behind a shuffleComm seeded with seed, then one Run of every rank's
// Persistent with the same payloads, and returns the learning run's frames
// after checking that the Run sent the same ones byte for byte.
func learnAndReplayFrames(t *testing.T, tp *vpt.Topology, payloads func(me int) map[int][]byte, seed int64) map[sentKey][]byte {
	t.Helper()
	K := tp.Size()
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mu, rng := &sync.Mutex{}, rand.New(rand.NewSource(seed))
	comms := w.Comms()
	for i, c := range comms {
		comms[i] = &shuffleComm{Passthrough: runtime.Passthrough{Comm: c}, mu: mu, rng: rng}
	}
	var rec frameRecorder
	comms = rec.wrapAll(comms)
	ps := make([]*Persistent, K)
	err = runtime.Run(comms, func(c runtime.Comm) error {
		var err error
		ps[c.Rank()], _, err = NewPersistent(c, tp, payloads(c.Rank()))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	learned := rec.frames
	rec.frames = map[sentKey][]byte{}
	err = runtime.Run(comms, func(c runtime.Comm) error {
		_, err := ps[c.Rank()].Run(c, payloads(c.Rank()))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.frames) != len(learned) {
		t.Fatalf("the learning run sent %d frames, the first Run %d", len(learned), len(rec.frames))
	}
	for key, raw := range learned {
		if !bytes.Equal(raw, rec.frames[key]) {
			t.Fatalf("frame %+v: the first Run's %d bytes differ from the learning run's %d", key, len(rec.frames[key]), len(raw))
		}
	}
	return learned
}
