package main

import (
	"fmt"
	"math/rand"
	"os"

	"stfw/internal/core"
	"stfw/internal/experiments"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
	"stfw/internal/telemetry"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

// The live experiment's fixed world: the paper's K=64 configuration over a
// 3-dimensional balanced topology (T3, 4x4x4).
const (
	liveK      = 64
	liveDim    = 3
	liveMatrix = "gupta2"
	liveIters  = 4 // learning iteration + 3 steady-state
)

// runLive executes a real K=64 STFW SpMV in-process with the telemetry
// layer attached and reports the observed (not modeled) behavior: frame
// and forward counters, frame-size and stage-latency histograms, and a
// Perfetto trace when -trace-out is set. The first iteration is the STFW
// learning run (dynamic routing with fixed-order receives, recording the
// schedule); the remaining iterations replay the learned program through
// the compiled lowering (DESIGN.md §8), so the trace shows learning and
// replay side by side.
func runLive(c experiments.Config, cfg benchConfig, reg *telemetry.Registry) error {
	if cfg.procs > 1 {
		// Multi-process loopback mode replaces the in-process SpMV run
		// with a wire-only learned-replay collective (see udp.go).
		return runUDPProcs(cfg)
	}
	a, err := sparse.CatalogMatrix(liveMatrix, c.Scale)
	if err != nil {
		return err
	}
	st := sparse.ComputeStats(a)
	fmt.Printf("live STFW run: %s scale %d (%dx%d, %d nnz), K=%d\n",
		liveMatrix, c.Scale, st.Rows, st.Cols, st.NNZ, liveK)

	part, err := partition.Greedy(a, liveK, partition.DefaultGreedy())
	if err != nil {
		return err
	}
	pat, err := spmv.BuildPattern(a, part)
	if err != nil {
		return err
	}
	tp, err := vpt.NewBalanced(liveK, liveDim)
	if err != nil {
		return err
	}
	fmt.Printf("topology: %s, message bound %d (BL bound %d)\n",
		tp, core.MaxMessageBound(tp), liveK-1)

	rng := rand.New(rand.NewSource(42))
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	var comms []runtime.Comm
	switch cfg.transport {
	case "", "chan":
		w, err := chanpt.NewWorld(liveK, liveK)
		if err != nil {
			return err
		}
		comms = w.Comms()
	case "tcp":
		w, err := tcpnet.NewWorld(liveK)
		if err != nil {
			return err
		}
		defer w.Close()
		comms = w.Comms()
	case "udp":
		w, err := udpnet.NewWorld(liveK)
		if err != nil {
			return err
		}
		defer func() {
			w.Close()
			st := w.Stats()
			fmt.Printf("udpnet: %d data dgrams in %d batches, %d resends, %d ack dgrams, %d acks piggybacked, %d stage acks, %d acks suppressed\n",
				st.DataSent, st.Batches, st.Resends, st.AckDgrams, st.AcksPiggybacked, st.StageAcks, st.AcksSuppressed)
		}()
		comms = w.Comms()
	case "hier":
		// The hierarchical composite on a simulated two-node split of the
		// world: intra-node pairs over chanpt, inter-node pairs (and the
		// world barrier) over udpnet.
		inner, err := chanpt.NewWorld(liveK, liveK)
		if err != nil {
			return err
		}
		outer, err := udpnet.NewWorld(liveK)
		if err != nil {
			return err
		}
		defer func() {
			st := outer.Stats()
			outer.Close()
			inner.Close()
			fmt.Printf("hier outer udpnet: %d data dgrams in %d batches, %d resends, %d ack dgrams, %d acks piggybacked, %d stage acks, %d acks suppressed\n",
				st.DataSent, st.Batches, st.Resends, st.AckDgrams, st.AcksPiggybacked, st.StageAcks, st.AcksSuppressed)
		}()
		half := liveK / 2
		hw, err := hier.New(hier.Config{
			Inner:  inner.Comms(),
			Outer:  outer.Comms(),
			NodeOf: func(r int) int { return r / half },
		})
		if err != nil {
			return err
		}
		fmt.Printf("hier transport: 2-node split (%d ranks/node), intra-node chanpt, inter-node udpnet\n", half)
		comms = hw.Comms()
	default:
		return fmt.Errorf("unknown transport %q (want chan, tcp, udp, or hier)", cfg.transport)
	}
	stages := tp.N()
	reg.WrapComms(comms, func(tag int) (int, bool) {
		return core.TagStage(tag, stages)
	})
	opt := spmv.Options{Method: spmv.STFW, Topo: tp, Telemetry: reg}
	err = runtime.Run(comms, func(cm runtime.Comm) error {
		sess, err := spmv.NewSession(cm, a, part, pat, opt)
		if err != nil {
			return err
		}
		for it := 0; it < liveIters; it++ {
			if _, err := sess.Multiply(x); err != nil {
				return fmt.Errorf("iteration %d rank %d: %w", it, cm.Rank(), err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	s := reg.Snapshot()
	tot := s.Totals()
	fmt.Printf("\nobserved over %d iterations:\n", liveIters)
	fmt.Printf("  frames sent      %8d (%d bytes)\n", tot.Sends, tot.SendBytes)
	fmt.Printf("  frames received  %8d (%d bytes)\n", tot.Recvs, tot.RecvBytes)
	fmt.Printf("  subs forwarded   %8d (%d bytes)\n", tot.Forwards, tot.FwdBytes)
	reg.WriteHistograms(os.Stdout)
	if cfg.traceOut != "" {
		if err := reg.WriteTraceFile(cfg.traceOut); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (open in ui.perfetto.dev)\n", cfg.traceOut)
	}
	return nil
}
