package main

// metricDecl declares one metric. BENCHMARK.json lists exactly the ones in
// endToEnd and perLayer, and a test holds the two in step.
type metricDecl struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced pass. One op is one
// Session.Multiply (spmv-*), one CG solve (cg-udp), one cycle of 40 replays
// and a patch round (churn-chan) or one Persistent.Run (replay-hier).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"mem_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
}

// bounds is the share of the base median by which an end-to-end metric may
// get worse before -compare calls it a regression.
var bounds = map[string]float64{
	"setup_s":   0.25,
	"mem_mb":    0.10,
	"ops_per_s": 0.25,
	"op_p50_ms": 0.25,
	"op_p90_ms": 0.25,
}

// perLayer are the metrics of the traced pass, layer = module name. Every
// traced run reports all of them; one a workload has no layer for reads 0.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDecl{
	// Set-up path, split by the module that does the work.
	{"partition.greedy_ms", "ms", "lower"},
	{"spmv.pattern_ms", "ms", "lower"},
	{"mapping.plandims_ms", "ms", "lower"},
	{"transport.world_ms", "ms", "lower"},
	{"spmv.learn_ms", "ms", "lower"},
	{"core.plan_ms", "ms", "lower"},
	// spmv.Session.Timings, summed over ranks, per iteration.
	{"spmv.gather_us", "us", "lower"},
	{"spmv.kernel_us", "us", "lower"},
	{"spmv.exchange_us", "us", "lower"},
	{"spmv.payload_mb_per_s", "MB/s", "higher"},
	// core: counts (repeat exactly for one seed), then timers.
	{"core.frames_per_iter", "count", "lower"},
	{"core.wire_bytes_per_iter", "B", "lower"},
	{"core.fwd_bytes_per_iter", "B", "lower"},
	{"core.mmax", "count", "lower"},
	{"core.mavg", "count", "lower"},
	{"core.volume_blowup", "ratio", "lower"},
	{"core.replay_self_us", "us", "lower"},
	{"core.allocs_per_iter", "count", "lower"},
	{"core.gc_cycles", "count", "lower"},
	{"dynamic.discover_us", "us", "lower"},
	{"core.patch_us", "us", "lower"},
	{"core.patchcompiled_us", "us", "lower"},
	{"core.churn_replay_us", "us", "lower"},
	{"core.relearn_ms", "ms", "lower"},
	{"dynamic.patch_over_relearn", "ratio", "lower"},
	// msg codec over the workload's own frames.
	{"msg.encode_ns_per_frame", "ns", "lower"},
	{"msg.decode_ns_per_frame", "ns", "lower"},
	{"msg.codec_mb_per_s", "MB/s", "higher"},
	{"msg.allocs_per_frame", "count", "lower"},
	// The decorator Comm's spans, per rank and iteration.
	{"transport.send_us", "us", "lower"},
	{"transport.recv_wait_us", "us", "lower"},
	{"transport.barrier_us", "us", "lower"},
	{"transport.stage0.recv_wait_us", "us", "lower"},
	{"transport.stage1.recv_wait_us", "us", "lower"},
	{"transport.stage2.recv_wait_us", "us", "lower"},
	{"world.iter_self_us", "us", "lower"},
	{"transport.frames_per_s", "1/s", "higher"},
	{"transport.wire_mb_per_s", "MB/s", "higher"},
	// Transport floors: two-rank loops on the public constructors.
	{"chanpt.pingpong_ns", "ns", "lower"},
	{"tcpnet.pingpong_us", "us", "lower"},
	{"udpnet.pingpong_us", "us", "lower"},
	{"tcpnet.stream_mb_per_s", "MB/s", "higher"},
	{"udpnet.stream_mb_per_s", "MB/s", "higher"},
	// runtime.LinkStatsOf deltas over the traced window.
	{"udpnet.pkts_per_iter", "count", "lower"},
	{"udpnet.acks_sent_per_iter", "count", "lower"},
	{"udpnet.acks_suppressed_share", "ratio", "higher"},
	{"udpnet.stage_acks_share", "ratio", "higher"},
	{"udpnet.liveness_acks_per_iter", "count", "lower"},
	{"udpnet.timeout_resends", "count", "lower"},
	{"udpnet.gap_resends", "count", "lower"},
	{"udpnet.window_stalls", "count", "lower"},
	{"udpnet.backlog_hwm", "count", "lower"},
	{"udpnet.dups", "count", "lower"},
	{"udpnet.srtt_us", "us", "lower"},
	{"tcpnet.pkts_per_iter", "count", "lower"},
	{"hier.inner_frames_share", "ratio", "higher"},
	{"hier.outer_frames_per_iter", "count", "lower"},
	{"collectives.allreduce_us", "us", "lower"},
	{"collectives.barrier_us", "us", "lower"},
	{"iterative.iters", "count", "lower"},
	{"iterative.iter_ms", "ms", "lower"},
	{"iterative.residual", "ratio", "lower"},
	{"netsim.pred_over_meas", "ratio", "lower"},
	{"telemetry.overhead_ratio", "ratio", "lower"},
	{"telemetry.spans_per_iter", "count", "lower"},
	{"telemetry.spans_dropped", "count", "lower"},
	// The process and the window as a whole.
	{"proc.cpu_user_s", "s", "lower"},
	{"proc.cpu_sys_s", "s", "lower"},
	{"proc.cpu_util", "ratio", "higher"},
	{"proc.ctx_switches_per_iter", "count", "lower"},
	{"proc.goroutines", "count", "lower"},
	{"proc.fds", "count", "lower"},
	{"world.iter_p99_ms", "ms", "lower"},
	{"world.iter_samples", "count", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}
