package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"syscall"
	"time"

	"stfw/internal/collectives"
	"stfw/internal/core"
	"stfw/internal/metrics"
	"stfw/internal/msg"
	"stfw/internal/netsim"
	"stfw/internal/runtime"
	"stfw/internal/spmv"
)

// traced is one traced pass in progress: the result being filled and the
// table that gives every metric its unit.
type traced struct {
	sp    spec
	res   *result
	units map[string]string
	// frames[r] is what rank r received in one recorded iteration.
	frames []map[frameKey][]byte
	// stageBusy[d] is the busiest rank's send + recv_wait time in stage d,
	// seconds per timed op of the traced window.
	stageBusy [maxStages]float64
}

// newTraced starts a traced pass with every per-layer metric at 0.
func newTraced(sp spec) *traced {
	t := &traced{sp: sp, res: &result{Metrics: map[string]metric{}}, units: map[string]string{}}
	for _, m := range perLayer {
		t.units[m.name] = m.unit
		t.set(m.name, 0)
	}
	return t
}

// set records a per-layer metric; a name missing from the table is a bug.
func (t *traced) set(name string, v float64) {
	unit, ok := t.units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in perLayer")
	}
	t.res.set(name, v, unit)
}

// runTraced is the traced pass. It measures a short untraced window first,
// then the same program behind the decorator Comm, and reports the ratio of
// the two as the tracing overhead; after that it probes the layers one at a
// time. seconds is split a quarter each between the two windows, the rest is
// left to the probes.
func runTraced(sp spec, seed int64, seconds float64, outDir string) (*result, error) {
	in, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	t := newTraced(sp)
	window := seconds / 4

	// The program as it ships: set-up split, p99, allocations.
	var st setupTimes
	w0, err := in.setup(noWrap, &st)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	ref, err := w0.measure(window, sp.chunk)
	goruntime.ReadMemStats(&ms1)
	w0.close()
	t.res.count(ref)
	if err != nil {
		logf("%s: %v", sp.name, err)
		return t.res, nil
	}
	t.set("partition.greedy_ms", st.greedy*1e3)
	t.set("spmv.pattern_ms", st.pattern*1e3)
	t.set("mapping.plandims_ms", st.plandims*1e3)
	t.set("transport.world_ms", st.world*1e3)
	t.set("spmv.learn_ms", st.learn*1e3)
	refP50 := median(ref.p50)
	t.set("world.iter_p99_ms", percentiles(ref.lat, ref.ops, 0.99)[0])
	t.set("world.iter_samples", float64(ref.samples()))
	t.set("core.allocs_per_iter", float64(ms1.Mallocs-ms0.Mallocs)/float64(ref.ops))
	t.set("core.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	if w0.sets != nil {
		t.set("spmv.payload_mb_per_s", float64(w0.sets.TotalWords()*8)*float64(ref.ops)/ref.wall.Seconds()/1e6)
	}

	// The same inputs with the program's own telemetry off: the ratio is
	// what leaving the instruments on costs.
	if si, ok := in.(*spmvInstance); ok && sp.telemetry {
		off := *si
		off.sp.telemetry = false
		w, err := off.setup(noWrap, &setupTimes{})
		if err != nil {
			return nil, err
		}
		win, err := w.measure(window, sp.chunk)
		w.close()
		t.res.count(win)
		if err != nil {
			logf("%s: %v", sp.name, err)
			return t.res, nil
		}
		t.set("telemetry.overhead_ratio", refP50/median(win.p50))
	}

	// The program behind the decorator.
	wrap, tcsp := traceWrap(time.Now())
	w, err := in.setup(wrap, &setupTimes{})
	if err != nil {
		return nil, err
	}
	defer w.close()
	tcs := *tcsp
	// A CG solve is hundreds of exchanges long: time every one of the few.
	w.op = traceOp(w.op, tcs, int32(min(sampleEvery, sp.chunk)))
	for _, c := range tcs {
		c.reset()
	}
	if w.churn != nil {
		w.churn.reset()
	}
	tm0 := w.timings()
	spans0 := w.telemetrySpans()
	links0 := linkTotals(w.comms)
	ru0, t0 := rusage(), time.Now()
	win, err := w.measure(window, sp.chunk)
	elapsed, ru1 := time.Since(t0), rusage()
	t.res.count(win)
	if err != nil {
		logf("%s: %v", sp.name, err)
		return t.res, nil
	}
	t.set("proc.goroutines", float64(goruntime.NumGoroutine()))
	t.set("proc.fds", float64(countFDs()))
	t.set("trace.overhead_ratio", median(win.p50)/refP50)
	t.spans(tcs, win)
	t.process(ru0, ru1, elapsed, win)
	t.links(links0, linkTotals(w.comms), tcs, win)
	t.sessions(tm0, w.timings(), win)
	if w.reg != nil {
		t.set("telemetry.spans_per_iter", float64(w.telemetrySpans()-spans0)/float64(len(tcs)*win.ops))
		dropped := 0
		for r := range tcs {
			dropped += max(0, int(w.reg.Rank(r).SpanCount())-len(w.reg.Rank(r).Spans()))
		}
		t.set("telemetry.spans_dropped", float64(dropped))
	}
	if w.churn != nil {
		t.churn(w.churn, win)
	}
	if w.lastCG != nil {
		cg := w.lastCG()
		t.set("iterative.iters", float64(cg.Iters))
		t.set("iterative.iter_ms", refP50/float64(cg.Iters))
		t.set("iterative.residual", cg.Residual)
	}

	// Probes on the live traced world.
	if err := t.captureFrames(w, tcs); err != nil {
		return nil, err
	}
	if sp.kind == kindCG {
		if err := t.collectives(w); err != nil {
			return nil, err
		}
	}
	if w.relearn != nil {
		if err := t.relearn(w); err != nil {
			return nil, err
		}
	}
	w.close()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(outDir, sp.name+".trace.json"), tcs); err != nil {
		return nil, err
	}

	// Probes that need no world.
	if w.selfTime != nil {
		if err := t.engineSelf(w, tcs); err != nil {
			return nil, err
		}
	}
	t.codec(tcs)
	if err := t.floors(); err != nil {
		return nil, err
	}
	if err := t.staticPlan(w); err != nil {
		return nil, err
	}
	return t.res, nil
}

// spans turns the decorator's totals into per-rank, per-iteration times. An
// iteration's self time is its span minus its send, recv_wait and barrier
// children. It runs right after the traced window: the probes that follow
// send frames through the same decorator.
func (t *traced) spans(tcs []*tracedComm, win *window) {
	var send, recv, barrier, iter, iters, frames, bytes, stageFrames, stageBytes int64
	var stage [maxStages]int64
	for _, c := range tcs {
		send += c.sendNs
		recv += c.recvNs
		barrier += c.barrierNs
		iter += c.iterNs
		iters += c.iterN
		frames += c.sendN
		bytes += c.sendBytes
		stageFrames += c.stageFrames
		stageBytes += c.stageBytes
		for s := range stage {
			stage[s] += c.stageRecvNs[s]
			if c.iterN == 0 {
				continue
			}
			t.stageBusy[s] = max(t.stageBusy[s], float64(c.stageSendNs[s]+c.stageRecvNs[s])/float64(c.iterN)/1e9)
		}
	}
	t.set("core.frames_per_iter", float64(stageFrames)/float64(win.ops))
	t.set("core.wire_bytes_per_iter", float64(stageBytes)/float64(win.ops))
	us := func(ns int64) float64 { return float64(ns) / float64(iters) / 1e3 }
	t.set("transport.send_us", us(send))
	t.set("transport.recv_wait_us", us(recv))
	t.set("transport.barrier_us", us(barrier))
	t.set("world.iter_self_us", us(iter-send-recv-barrier))
	for s := 0; s < 3; s++ {
		t.set(fmt.Sprintf("transport.stage%d.recv_wait_us", s), us(stage[s]))
	}
	t.set("transport.frames_per_s", float64(frames)/win.wall.Seconds())
	t.set("transport.wire_mb_per_s", float64(bytes)/win.wall.Seconds()/1e6)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// process says how busy the box was: with K ranks on nproc cores, cpu_util
// near 1 means every throughput number is a saturated-CPU number.
func (t *traced) process(a, b syscall.Rusage, elapsed time.Duration, win *window) {
	user := tvSeconds(b.Utime) - tvSeconds(a.Utime)
	sys := tvSeconds(b.Stime) - tvSeconds(a.Stime)
	t.set("proc.cpu_user_s", user)
	t.set("proc.cpu_sys_s", sys)
	t.set("proc.cpu_util", (user+sys)/(elapsed.Seconds()*float64(goruntime.NumCPU())))
	t.set("proc.ctx_switches_per_iter", float64(b.Nvcsw+b.Nivcsw-a.Nvcsw-a.Nivcsw)/float64(win.ops))
}

func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

// linkTotals folds every rank's per-link wire counters into one record.
func linkTotals(comms []runtime.Comm) runtime.LinkStats {
	var tot runtime.LinkStats
	for _, c := range comms {
		for _, l := range runtime.LinkStatsOf(c) {
			tot.Add(l)
		}
	}
	return tot
}

// links reports the wire counters of the traced window. Only udpnet and
// tcpnet keep them; under hier they are the outer transport's.
func (t *traced) links(a, b runtime.LinkStats, tcs []*tracedComm, win *window) {
	per := func(x, y int64) float64 { return float64(y-x) / float64(win.ops) }
	switch t.sp.transport {
	case "tcpnet":
		t.set("tcpnet.pkts_per_iter", per(a.PktsSent, b.PktsSent))
		return
	case "chanpt":
		return
	}
	t.set("udpnet.pkts_per_iter", per(a.PktsSent, b.PktsSent))
	t.set("udpnet.acks_sent_per_iter", per(a.AcksSent, b.AcksSent))
	if d := (b.AcksSent - a.AcksSent) + (b.AcksSuppressed - a.AcksSuppressed); d > 0 {
		t.set("udpnet.acks_suppressed_share", float64(b.AcksSuppressed-a.AcksSuppressed)/float64(d))
	}
	if d := b.AcksSent - a.AcksSent; d > 0 {
		t.set("udpnet.stage_acks_share", float64(b.StageAcks-a.StageAcks)/float64(d))
	}
	t.set("udpnet.liveness_acks_per_iter", per(a.LivenessAcks, b.LivenessAcks))
	t.set("udpnet.timeout_resends", float64(b.TimeoutResends-a.TimeoutResends))
	t.set("udpnet.gap_resends", float64(b.GapResends-a.GapResends))
	t.set("udpnet.window_stalls", float64(b.WindowStalls-a.WindowStalls))
	t.set("udpnet.backlog_hwm", float64(b.BacklogHighWater))
	t.set("udpnet.dups", float64(b.Dups-a.Dups))
	t.set("udpnet.srtt_us", float64(b.SRTTNs)/1e3)
	if t.sp.transport == "hier" {
		var sent int64
		for _, c := range tcs {
			sent += c.sendN
		}
		outer := b.FramesSent - a.FramesSent
		t.set("hier.outer_frames_per_iter", float64(outer)/float64(win.ops))
		t.set("hier.inner_frames_share", 1-float64(outer)/float64(sent))
	}
}

// timings sums Session.Timings over the ranks; zero where the workload
// holds no sessions.
func (w *world) timings() (tm spmv.PhaseTimings) {
	for _, s := range w.sessions {
		p := s.Timings()
		tm.Gather += p.Gather
		tm.Exchange += p.Exchange
		tm.Kernel += p.Kernel
	}
	return tm
}

func (w *world) telemetrySpans() int64 {
	if w.reg == nil {
		return 0
	}
	var n int64
	for r := range w.comms {
		n += w.reg.Rank(r).SpanCount()
	}
	return n
}

func (t *traced) sessions(a, b spmv.PhaseTimings, win *window) {
	us := func(d time.Duration) float64 { return float64(d) / float64(win.ops) / 1e3 }
	t.set("spmv.gather_us", us(b.Gather-a.Gather))
	t.set("spmv.exchange_us", us(b.Exchange-a.Exchange))
	t.set("spmv.kernel_us", us(b.Kernel-a.Kernel))
}

func (cs *churnState) reset() {
	for r := range cs.replayNs {
		cs.replayNs[r], cs.discoverNs[r], cs.patchNs[r], cs.lowerNs[r] = 0, 0, 0, 0
	}
}

// churn reports the two halves of a churn cycle apart, per rank: one replay,
// and the three steps of one patch round.
func (t *traced) churn(cs *churnState, win *window) {
	var replay, discover, patch, lower int64
	for r := range cs.replayNs {
		replay += cs.replayNs[r]
		discover += cs.discoverNs[r]
		patch += cs.patchNs[r]
		lower += cs.lowerNs[r]
	}
	rounds := float64(len(cs.replayNs) * win.ops)
	t.set("core.churn_replay_us", float64(replay)/rounds/churnReplays/1e3)
	t.set("dynamic.discover_us", float64(discover)/rounds/1e3)
	t.set("core.patch_us", float64(patch)/rounds/1e3)
	t.set("core.patchcompiled_us", float64(lower)/rounds/1e3)
}

// captureFrames records one iteration's inbound frames on every rank into
// t.frames. The churn workload then runs one more op, unrecorded, so the
// world is back in its full pattern.
func (t *traced) captureFrames(w *world, tcs []*tracedComm) error {
	lat := make([][]int64, len(tcs))
	for _, c := range tcs {
		c.capture = map[frameKey][]byte{}
	}
	_, err := w.runChunk(0, 1, lat)
	for _, c := range tcs {
		t.frames = append(t.frames, c.capture)
		c.capture = nil
	}
	if err == nil && w.churn != nil {
		_, err = w.runChunk(0, 1, lat)
	}
	return err
}

// collectives times the two collectives a CG iteration uses, on the
// workload's own world: median over every rank's calls.
func (t *traced) collectives(w *world) error {
	const calls = 200
	for _, probe := range []struct {
		name string
		call func(c runtime.Comm) error
	}{
		{"collectives.allreduce_us", func(c runtime.Comm) error {
			_, err := collectives.AllreduceScalar(c, 1, collectives.Sum)
			return err
		}},
		{"collectives.barrier_us", collectives.Barrier},
	} {
		lat := make([][]float64, len(w.comms))
		err := runtime.Run(w.comms, func(c runtime.Comm) error {
			for i := 0; i < calls; i++ {
				t0 := time.Now()
				if err := probe.call(c); err != nil {
					return err
				}
				lat[c.Rank()] = append(lat[c.Rank()], float64(time.Since(t0))/1e3)
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.set(probe.name, median(slices.Concat(lat...)))
	}
	return nil
}

// relearn times what a patch round competes against: every rank learning
// and compiling the pattern from scratch.
func (t *traced) relearn(w *world) error {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := runtime.Run(w.comms, func(c runtime.Comm) error { return w.relearn(c.Rank()) }); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	t.set("core.relearn_ms", median(ms))
	round := t.res.Metrics["dynamic.discover_us"].Value + t.res.Metrics["core.patch_us"].Value + t.res.Metrics["core.patchcompiled_us"].Value
	t.set("dynamic.patch_over_relearn", round/1e3/median(ms))
	return nil
}

// engineSelf runs every rank's engine alone against its canned frames and
// sums the per-iteration times: the CPU one iteration of the world costs in
// the engine with the transport and the scheduler taken away.
func (t *traced) engineSelf(w *world, tcs []*tracedComm) error {
	var sum time.Duration
	for r := range tcs {
		d, err := w.selfTime(r, &cannedComm{rank: r, size: len(tcs), frames: t.frames[r]}, 100)
		if err != nil {
			return fmt.Errorf("engine self time, rank %d: %w", r, err)
		}
		sum += d
	}
	t.set("core.replay_self_us", float64(sum)/1e3)
	return nil
}

// codec runs msg.DecodeInto and msg.Encode in one goroutine over the stage
// frames the workload's ranks received in one iteration.
func (t *traced) codec(tcs []*tracedComm) {
	var frames [][]byte
	var msgs []*msg.Message
	bytes := 0
	for r, c := range tcs {
		for k, f := range t.frames[r] {
			if c.stageOf(k.tag) < 0 {
				continue
			}
			m, err := msg.Decode(f)
			if err != nil {
				continue
			}
			frames = append(frames, f)
			msgs = append(msgs, m)
			bytes += len(f)
		}
	}
	if len(frames) == 0 {
		return
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	var scratch msg.Message
	var buf []byte
	var decode, encode time.Duration
	n := 0
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; n++ {
		t1 := time.Now()
		for _, f := range frames {
			_ = msg.DecodeInto(&scratch, f) // decoded once above, so it cannot fail
		}
		t2 := time.Now()
		for _, m := range msgs {
			buf = msg.Encode(buf[:0], m)
		}
		decode += t2.Sub(t1)
		encode += time.Since(t2)
	}
	goruntime.ReadMemStats(&ms1)
	total := float64(n * len(frames))
	t.set("msg.decode_ns_per_frame", float64(decode)/total)
	t.set("msg.encode_ns_per_frame", float64(encode)/total)
	t.set("msg.codec_mb_per_s", 2*float64(n*bytes)/1e6/(decode+encode).Seconds())
	t.set("msg.allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/(2*total))
}

// floors measures the transports this workload runs over, alone.
func (t *traced) floors() error {
	uses := map[string][]string{"chanpt": {"chanpt"}, "udpnet": {"udpnet"}, "tcpnet": {"tcpnet"}, "hier": {"chanpt", "udpnet"}}
	for _, tp := range uses[t.sp.transport] {
		trips := 2000
		if tp == "chanpt" {
			trips = 50000
		}
		d, err := pingPong(tp, trips)
		if err != nil {
			return fmt.Errorf("%s ping-pong: %w", tp, err)
		}
		if tp == "chanpt" {
			t.set("chanpt.pingpong_ns", float64(d))
			continue
		}
		t.set(tp+".pingpong_us", float64(d)/1e3)
		mbs, err := stream(tp, 400)
		if err != nil {
			return fmt.Errorf("%s stream: %w", tp, err)
		}
		t.set(tp+".stream_mb_per_s", mbs)
	}
	return nil
}

// staticPlan routes the workload's send sets through the static router for
// the paper's count metrics, and holds the netsim model against the stage
// times the decorator measured.
func (t *traced) staticPlan(w *world) error {
	t0 := time.Now()
	plan, err := core.BuildPlan(w.topo, w.sets)
	if err != nil {
		return err
	}
	t.set("core.plan_ms", float64(time.Since(t0))/1e6)
	sum, err := metrics.Summarize("stfw", plan, w.sets)
	if err != nil {
		return err
	}
	t.set("core.mmax", sum.MMax)
	t.set("core.mavg", sum.MAvg)
	t.set("core.fwd_bytes_per_iter", float64(plan.TotalWords-plan.DeliveredWords)*8)
	t.set("core.volume_blowup", float64(plan.TotalWords)/float64(plan.DeliveredWords))

	// The model is priced per exchange, so it is only held against
	// workloads whose op is one exchange, on a transport that measures RTTs.
	srtt := t.res.Metrics["udpnet.srtt_us"].Value
	if srtt == 0 || (t.sp.kind != kindSpMV && t.sp.kind != kindReplay) {
		return nil
	}
	measured := t.stageBusy[:len(plan.Stages)]
	m, err := netsim.CalibrateMachine("loopback", w.topo.Size(), srtt/2/1e6, plan, measured)
	if err != nil {
		return err
	}
	rows, err := netsim.CompareStageTimes(m, plan, measured)
	if err != nil {
		return err
	}
	if pred, meas, _ := netsim.TotalDivergence(rows); meas > 0 {
		t.set("netsim.pred_over_meas", pred/meas)
	}
	return nil
}
