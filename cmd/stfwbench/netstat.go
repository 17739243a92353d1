package main

// The netstat experiment: execute the K=64 learned-replay exchange over
// udpnet with wire-level telemetry attached, then print what the network
// actually did — per-rank link stats (RTT, resends, SACK repairs, ack
// suppression), the per-stage straggler table — and how far the netsim
// cost model, calibrated from the measured ack RTTs, diverges from the
// measured per-stage wall-clock. With -procs P the run spans P OS
// processes; each child ships its registry snapshot back over an inherited
// pipe and the parent merges them into one fleet report (and, with
// -debug-addr, serves the merged view from a single /debug/fleet
// endpoint).

import (
	"fmt"
	"os"
	"os/signal"

	"stfw/internal/experiments"
	"stfw/internal/telemetry"
	"stfw/internal/transport/udpnet"
)

// runNetstat dispatches between the in-process run and the multi-process
// fleet run.
func runNetstat(cfg benchConfig) error {
	ncfg := experiments.DefaultNetstat()
	if cfg.procs > 1 {
		return runNetstatProcs(cfg, ncfg)
	}
	reg, err := telemetry.New(telemetry.Config{Ranks: ncfg.K, Stages: ncfg.Dim})
	if err != nil {
		return err
	}
	w, err := udpnet.NewWorld(ncfg.K)
	if err != nil {
		return err
	}
	defer w.Close()
	fmt.Println("netstat: in-process udp run")
	if err := experiments.NetstatRun(ncfg, reg, w.Comms()); err != nil {
		return err
	}
	return netstatFinish(cfg, ncfg, reg.Snapshot())
}

// runNetstatProcs is the fleet path: the udp launcher returns one decoded
// snapshot per child, merged here onto the world timeline.
func runNetstatProcs(cfg benchConfig, ncfg experiments.NetstatConfig) error {
	if ncfg.K%cfg.procs != 0 {
		return fmt.Errorf("-procs must be a divisor of %d, got %d", ncfg.K, cfg.procs)
	}
	fmt.Printf("netstat: K=%d over %d processes (%d ranks each)\n", ncfg.K, cfg.procs, ncfg.K/cfg.procs)
	snaps, err := launchUDPProcs(ncfg.K, cfg.procs)
	if err != nil {
		return err
	}
	merged, err := telemetry.MergeSnapshots(snaps)
	if err != nil {
		return err
	}
	return netstatFinish(cfg, ncfg, merged)
}

// netstatFinish builds and prints the measured-vs-model report from a
// (possibly fleet-merged) snapshot, honoring -trace-out and -debug-addr.
func netstatFinish(cfg benchConfig, ncfg experiments.NetstatConfig, snap telemetry.Snapshot) error {
	rep, err := experiments.BuildNetstatReport(ncfg, snap)
	if err != nil {
		return err
	}
	experiments.RenderNetstat(os.Stdout, rep)
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return err
		}
		if err := telemetry.WriteSnapshotTrace(f, snap); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nmerged trace written to %s (open in ui.perfetto.dev)\n", cfg.traceOut)
	}
	if cfg.debugAddr != "" {
		ds, err := telemetry.ServeFleetDebug(cfg.debugAddr, snap)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Printf("\nfleet debug endpoint: http://%s/debug/fleet (interrupt to exit)\n", ds.Addr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
	return nil
}
