package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

// runPersistent learns a pattern on every rank, replays it iters times with
// payload bytes that vary per round, and checks each replay delivers
// exactly what a fresh Exchange would. A pair's payload keeps its learned
// length: lengths are part of the learned contract.
func runPersistent(t *testing.T, tp *vpt.Topology, s *SendSets, iters int) {
	t.Helper()
	K := tp.Size()
	recv := s.RecvSets()
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		me := c.Rank()
		mkPayloads := func(round int) map[int][]byte {
			out := map[int][]byte{}
			for _, pr := range s.Sets[me] {
				// Payload bytes vary per round (and per pair); the size is
				// the pair's.
				buf := make([]byte, pr.Words)
				for i := range buf {
					buf[i] = byte(me ^ pr.Dst ^ round ^ i)
				}
				out[pr.Dst] = buf
			}
			return out
		}
		check := func(round int, d *Delivered) error {
			want := recv[me]
			if len(d.Subs) != len(want) {
				return fmt.Errorf("round %d rank %d: %d deliveries, want %d", round, me, len(d.Subs), len(want))
			}
			for i, pr := range want {
				sub := d.Subs[i]
				if sub.Src != pr.Dst {
					return fmt.Errorf("round %d rank %d: delivery %d from %d, want %d", round, me, i, sub.Src, pr.Dst)
				}
				wantData := make([]byte, pr.Words)
				for j := range wantData {
					wantData[j] = byte(sub.Src ^ me ^ round ^ j)
				}
				if !bytes.Equal(sub.Data, wantData) {
					return fmt.Errorf("round %d rank %d: payload from %d corrupted", round, me, sub.Src)
				}
			}
			return nil
		}

		p, first, err := NewPersistent(c, tp, mkPayloads(0))
		if err != nil {
			return err
		}
		if err := check(0, first); err != nil {
			return err
		}
		for round := 1; round <= iters; round++ {
			d, err := p.Run(c, mkPayloads(round))
			if err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			if err := check(round, d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPersistentReplaysPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dims := range [][]int{{4, 4}, {2, 2, 2, 2}, {8, 2}, {16}} {
		tp := vpt.MustNew(dims...)
		s := randomSendSets(rng, tp.Size(), 2, 3, 4)
		runPersistent(t, tp, s, 4)
	}
}

func TestPersistentMatchesExchangeDeliveries(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	tp := vpt.MustNew(4, 2, 2)
	s := randomSendSets(rng, 16, 1, 2, 3)
	// Learning run itself must equal a plain Exchange (both validated
	// against RecvSets by runPersistent and checkDeliveries).
	runPersistent(t, tp, s, 1)
	got, _ := runExchange(t, tp, s)
	checkDeliveries(t, s, got)
}

// TestLearningLayoutReproducible: what a learning run records depends on
// the pattern alone, not on the transport's timing or service order. The
// same pattern is learned in two worlds whose sends are delayed and whose
// arrival-order receives are served in random order, under different
// seeds, and in a third whose receives a shuffleComm serves in a random
// order of its own; all three must record the same schedule, the same pair
// table and the same derived frames and deliveries. (The learning run routes each frame as it lands, so its
// forward buffers fill in arrival order; let it send them unsorted and the
// slot order inside later-stage frames differs.)
func TestLearningLayoutReproducible(t *testing.T) {
	learn := func(tp *vpt.Topology, s *SendSets, comms []runtime.Comm) []*Persistent {
		ps := make([]*Persistent, tp.Size())
		err := runtime.Run(comms, func(c runtime.Comm) error {
			payloads := map[int][]byte{}
			for _, pr := range s.Sets[c.Rank()] {
				payloads[pr.Dst] = payloadWords(c.Rank(), pr.Dst, pr.Words)
			}
			p, _, err := NewPersistent(c, tp, payloads)
			ps[c.Rank()] = p
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyLearnedWorld(ps); err != nil {
			t.Fatal(err)
		}
		return ps
	}
	injected := func(tp *vpt.Topology, s *SendSets, seed int64) []*Persistent {
		w, err := chanpt.NewWorld(tp.Size(), 2)
		if err != nil {
			t.Fatal(err)
		}
		inj := tptest.NewInjector(tptest.FaultConfig{Seed: seed, Delay: 0.5, MaxDelay: 100 * time.Microsecond, Reorder: 0.75})
		ps := learn(tp, s, inj.WrapAll(w.Comms()))
		if st := inj.Stats(); st.Delayed == 0 {
			t.Fatalf("delay fault never fired: %+v", st)
		}
		return ps
	}
	shuffled := func(tp *vpt.Topology, s *SendSets, seed int64) []*Persistent {
		w, err := chanpt.NewWorld(tp.Size(), 2)
		if err != nil {
			t.Fatal(err)
		}
		mu, rng := &sync.Mutex{}, rand.New(rand.NewSource(seed))
		comms := w.Comms()
		for i, c := range comms {
			comms[i] = &shuffleComm{Passthrough: runtime.Passthrough{Comm: c}, mu: mu, rng: rng}
		}
		return learn(tp, s, comms)
	}
	rng := rand.New(rand.NewSource(89))
	for _, c := range []struct{ K, n int }{{16, 2}, {64, 3}} { // radix 4: three candidates per receive round
		tp, err := vpt.NewBalanced(c.K, c.n)
		if err != nil {
			t.Fatal(err)
		}
		s := randomSendSets(rng, c.K, 2, 3, 4)
		a := injected(tp, s, 1)
		for _, other := range []struct {
			name string
			ps   []*Persistent
		}{{"delay seed 2", injected(tp, s, 2)}, {"shuffleComm", shuffled(tp, s, 3)}} {
			b := other.ps
			for r := range a {
				if !reflect.DeepEqual(a[r].Schedule(), b[r].Schedule()) {
					t.Fatalf("K=%d rank %d, %s: learned schedules differ:\n%+v\n%+v", c.K, r, other.name, a[r].Schedule(), b[r].Schedule())
				}
				for _, f := range []struct {
					name string
					a, b any
				}{
					{"pair table", a[r].pairs, b[r].pairs},
					{"outbound frames", a[r].outs, b[r].outs},
					{"inbound frames", a[r].ins, b[r].ins},
					{"deliveries", a[r].deliver, b[r].deliver},
				} {
					if !reflect.DeepEqual(f.a, f.b) {
						t.Fatalf("K=%d rank %d, %s: learned %s differs:\n%+v\n%+v", c.K, r, other.name, f.name, f.a, f.b)
					}
				}
			}
		}
	}
}

func TestPersistentRejectsPatternDrift(t *testing.T) {
	tp := vpt.MustNew(2, 2)
	w, _ := chanpt.NewWorld(4, 2)
	err := w.Run(func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{(me + 1) % 4: {1}}
		p, _, err := NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		// Wrong destination set: replaced destination.
		if _, err := p.Run(c, map[int][]byte{(me + 2) % 4: {1}}); err == nil {
			return fmt.Errorf("rank %d: drifted destination accepted", me)
		}
		// Wrong destination count.
		if _, err := p.Run(c, map[int][]byte{}); err == nil {
			return fmt.Errorf("rank %d: missing destination accepted", me)
		}
		// A correct replay still works afterwards: a rejected replay still
		// walks every stage, so the world stays in step.
		d, err := p.Run(c, map[int][]byte{(me + 1) % 4: {9}})
		if err != nil {
			return err
		}
		if len(d.Subs) != 1 || d.Subs[0].Data[0] != 9 {
			return fmt.Errorf("rank %d: replay after rejects broken: %+v", me, d.Subs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPersistentDestinations(t *testing.T) {
	tp := vpt.MustNew(2, 2)
	w, _ := chanpt.NewWorld(4, 2)
	err := w.Run(func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{(me + 1) % 4: {1}, (me + 2) % 4: {2}}
		p, _, err := NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		ds := p.Destinations()
		if len(ds) != 2 {
			return fmt.Errorf("rank %d: destinations %v", me, ds)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPersistentSelfSend(t *testing.T) {
	tp := vpt.MustNew(2, 2)
	w, _ := chanpt.NewWorld(4, 2)
	err := w.Run(func(c runtime.Comm) error {
		p, first, err := NewPersistent(c, tp, map[int][]byte{c.Rank(): []byte("self")})
		if err != nil {
			return err
		}
		if len(first.Subs) != 1 || string(first.Subs[0].Data) != "self" {
			return fmt.Errorf("learning self-send lost")
		}
		d, err := p.Run(c, map[int][]byte{c.Rank(): []byte("anew")})
		if err != nil {
			return err
		}
		if len(d.Subs) != 1 || string(d.Subs[0].Data) != "anew" {
			return fmt.Errorf("replayed self-send lost: %+v", d.Subs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPersistentVsExchange(b *testing.B) {
	tp, _ := vpt.NewBalanced(64, 3)
	rng := rand.New(rand.NewSource(71))
	s := randomSendSets(rng, 64, 2, 3, 4)
	payloadsFor := func(me int) map[int][]byte {
		out := map[int][]byte{}
		for _, pr := range s.Sets[me] {
			out[pr.Dst] = make([]byte, pr.Words*8)
		}
		return out
	}
	b.Run("exchange", func(b *testing.B) {
		w, _ := chanpt.NewWorld(64, 2)
		comms := w.Comms()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := runtime.Run(comms, func(c runtime.Comm) error {
				_, err := Exchange(c, tp, payloadsFor(c.Rank()))
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("persistent", func(b *testing.B) {
		w, _ := chanpt.NewWorld(64, 2)
		comms := w.Comms()
		ps := make([]*Persistent, 64)
		err := runtime.Run(comms, func(c runtime.Comm) error {
			p, _, err := NewPersistent(c, tp, payloadsFor(c.Rank()))
			ps[c.Rank()] = p
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := runtime.Run(comms, func(c runtime.Comm) error {
				_, err := ps[c.Rank()].Run(c, payloadsFor(c.Rank()))
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// replayLockstep starts a chanpt world of len(payloads) ranks stepped in
// lock step: the first step is every rank's learning run over tp, each later
// step one Persistent.Run with the same payloads.
func replayLockstep(tb testing.TB, tp *vpt.Topology, payloads []map[int][]byte) (step func() error, stop func()) {
	tb.Helper()
	w, err := chanpt.NewWorld(len(payloads), 2)
	if err != nil {
		tb.Fatal(err)
	}
	ps := make([]*Persistent, len(payloads))
	return tptest.Lockstep(w.Comms(), func(c runtime.Comm, iter int) error {
		me := c.Rank()
		if iter == 0 {
			var err error
			ps[me], _, err = NewPersistent(c, tp, payloads[me])
			return err
		}
		_, err := ps[me].Run(c, payloads[me])
		return err
	})
}

// BenchmarkPersistentRun times one world-wide Persistent.Run in the shape of
// the replay-hier benchmark workload — K=64 on chanpt, T6(2,2,2,2,2,2),
// 8 random destinations × 256 B per rank — so the replay loop Persistent.Run
// shares with Replay.RunSum can be profiled on byte payloads, with the
// payload map, the contract check and the Delivered arena around it:
//
//	go test -run '^$' -bench PersistentRun -cpuprofile cpu.out ./internal/core/
func BenchmarkPersistentRun(b *testing.B) {
	const K, dests, size = 64, 8, 256
	rng := rand.New(rand.NewSource(K))
	payloads := make([]map[int][]byte, K)
	for src := range payloads {
		payloads[src] = map[int][]byte{}
		for len(payloads[src]) < dests {
			if dst := rng.Intn(K); dst != src {
				payloads[src][dst] = make([]byte, size)
			}
		}
	}
	step, stop := replayLockstep(b, vpt.MustNew(2, 2, 2, 2, 2, 2), payloads)
	defer stop()
	if err := step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPersistentRunAllocs gates the byte-payload replay path's allocation
// budget: one steady-state lockstep iteration of the K=64 world. A Run
// returns the Delivered it keeps from one lowering to the next and reuses
// every table and buffer of its replay, so a steady-state Run allocates
// nothing, and the world's iteration is held to what the lockstep harness
// itself costs, measured here with an op that does nothing. Any per-call
// structure — a payload map, the Delivered, its arena, the lowered replay or
// its tables — rebuilt per Run fails it. Under -race, whose instrumentation
// allocates on synchronization edges and drops pooled items at random, the
// test still replays the world but against a looser budget.
func TestPersistentRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs steady-state iterations")
	}
	const K, dim = 64, 3
	tp, err := vpt.NewBalanced(K, dim)
	if err != nil {
		t.Fatal(err)
	}
	// Two hot-spot ranks with near-complete send lists over a light
	// irregular background, payloads of 1..128 words.
	sends := randomSendSets(rand.New(rand.NewSource(K)), K, 2, 4, 128)
	payloads := make([]map[int][]byte, K)
	for src := range payloads {
		payloads[src] = map[int][]byte{}
		for _, pr := range sends.Sets[src] {
			payloads[src][pr.Dst] = make([]byte, 8*pr.Words)
		}
	}
	measure := func(step func() error) float64 {
		t.Helper()
		// Learn (or warm up), then warm up pools, matcher queues and the
		// lowered replay.
		for i := 0; i < 3; i++ {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		var stepErr error
		allocs := testing.AllocsPerRun(10, func() {
			if err := step(); err != nil && stepErr == nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		return allocs
	}
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	idle, stopIdle := tptest.Lockstep(w.Comms(), func(runtime.Comm, int) error { return nil })
	harness := measure(idle)
	stopIdle()
	w.Close()

	step, stop := replayLockstep(t, tp, payloads)
	defer stop()
	allocs := measure(step)
	budget := harness
	if raceEnabled {
		budget = 800
	}
	if allocs > budget {
		t.Errorf("persistent world iteration: %.0f allocs/op, budget %.0f (the harness's own)", allocs, budget)
	}
	t.Logf("persistent world iteration: %.0f allocs/op (budget %.0f, harness %.0f)", allocs, budget, harness)
}

// TestPersistentRunOwnsDelivered pins Run's ownership contract on a K=8
// chanpt world over T3(2,2,2). Steady-state Runs return one Delivered,
// overwritten in place. The first Run after a Patch that adds one pair and
// removes another returns the patched delivery set — new counts, new
// sources — over a new arena, leaving the Delivered returned before the
// Patch as it was. A Run that fails (one rank breaks the payload contract)
// is followed by a Run that delivers the patched pattern intact.
func TestPersistentRunOwnsDelivered(t *testing.T) {
	const K = 8
	tp := vpt.MustNew(2, 2, 2)
	base := synthBasePairs(2, K)
	var gone, added synthPair
	for pr := range base {
		if pr.src != pr.dst {
			gone = pr
			break
		}
	}
	for src := 0; src < K && added == (synthPair{}); src++ {
		for dst := K - 1; dst >= 0; dst-- {
			if _, ok := base[synthPair{src, dst}]; !ok && src != dst && dst != gone.dst {
				added = synthPair{src, dst}
				break
			}
		}
	}
	muts := []PatchPair{{Src: gone.src, Dst: gone.dst, Remove: true}, {Src: added.src, Dst: added.dst, Size: 24}}
	patched := applyMutations(base, muts)
	deltas := synthDeltas(tp, muts)
	world := synthWorld(tp, base)

	payload := func(pr synthPair, size, round int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(pr.src*31 + pr.dst*7 + i + round*101)
		}
		return b
	}
	payloads := func(pairs map[synthPair]int, me, round int) map[int][]byte {
		out := map[int][]byte{}
		for pr, size := range pairs {
			if pr.src == me {
				out[pr.dst] = payload(pr, size, round)
			}
		}
		return out
	}
	// check holds d to the deliveries of pairs at rank me, sorted by source.
	check := func(d *Delivered, pairs map[synthPair]int, me, round int) error {
		var want []msg.Submessage
		for pr, size := range pairs {
			if pr.dst == me {
				want = append(want, msg.Submessage{Src: pr.src, Dst: me, Data: payload(pr, size, round)})
			}
		}
		msg.SortSubs(want)
		if len(d.Subs) != len(want) {
			return fmt.Errorf("round %d: %d deliveries, want %d", round, len(d.Subs), len(want))
		}
		for i, s := range d.Subs {
			if s.Src != want[i].Src || s.Dst != me || !bytes.Equal(s.Data, want[i].Data) {
				return fmt.Errorf("round %d delivery %d: %d->%d %x, want %d->%d %x",
					round, i, s.Src, s.Dst, s.Data, want[i].Src, me, want[i].Data)
			}
		}
		return nil
	}

	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	breaker := added.src
	err = runtime.Run(w.Comms(), func(c runtime.Comm) error {
		me := c.Rank()
		p := world[me]
		d1, err := p.Run(c, payloads(base, me, 1))
		if err != nil {
			return err
		}
		if err := check(d1, base, me, 1); err != nil {
			return err
		}
		d2, err := p.Run(c, payloads(base, me, 2))
		if err != nil {
			return err
		}
		if d2 != d1 {
			return fmt.Errorf("rank %d: a steady-state Run returned a new Delivered", me)
		}
		if err := check(d2, base, me, 2); err != nil {
			return err
		}

		relowered := len(deltas[me].Pairs) > 0
		if relowered {
			if _, err := p.Patch(deltas[me]); err != nil {
				return err
			}
		}
		d3, err := p.Run(c, payloads(patched, me, 3))
		if err != nil {
			return err
		}
		if err := check(d3, patched, me, 3); err != nil {
			return err
		}
		if relowered {
			if d3 == d2 {
				return fmt.Errorf("rank %d: the first Run after a Patch returned the old Delivered", me)
			}
			if err := check(d2, base, me, 2); err != nil {
				return fmt.Errorf("rank %d: the first Run after a Patch wrote the old arena: %w", me, err)
			}
			if len(p.rp.arena) != p.rp.haloBytes {
				return fmt.Errorf("rank %d: arena has %d bytes, patched deliveries %d", me, len(p.rp.arena), p.rp.haloBytes)
			}
		}

		bad := payloads(patched, me, 4)
		if me == breaker {
			bad[added.dst] = bad[added.dst][:1]
		}
		if _, err := p.Run(c, bad); err == nil {
			return fmt.Errorf("rank %d: Run with a broken contract on rank %d returned no error", me, breaker)
		}
		d5, err := p.Run(c, payloads(patched, me, 5))
		if err != nil {
			return fmt.Errorf("rank %d: Run after a failed Run: %w", me, err)
		}
		return check(d5, patched, me, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
}
