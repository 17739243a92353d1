package main

// Multi-process loopback mode for the udpnet transport: -transport udp
// -procs P splits the K=64 live world across P OS processes, each owning a
// contiguous slice of ranks behind its own sockets. The parent binds every
// rank's UDP socket up front (so no rendezvous protocol is needed),
// re-execs itself P times passing each child its slice via inherited file
// descriptors, and waits. The children form one world purely over the
// wire — sends, credits, acks, and the barrier all cross process
// boundaries — and run a learned-replay throughput loop, each reporting
// its observed transport stats.
//
// The -exp netstat variant runs the same launcher with one extra inherited
// descriptor per child: a pipe on which the child, after its instrumented
// run, writes its telemetry registry's encoded snapshot (see
// telemetry.EncodeSnapshot). The parent decodes and merges the snapshots
// into one fleet view (see netstat.go).

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"stfw/internal/core"
	"stfw/internal/experiments"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

const (
	udpChildEnv  = "STFW_UDP_CHILD"
	udpExpEnv    = "STFW_UDP_EXP" // "" = replay loop, "netstat" = instrumented run + snapshot pipe
	udpProcDim   = 2              // dims [8,8] at K=64: the wide-radix shape
	udpProcIters = 200
	udpProcDests = 8
	udpProcBytes = 256
)

// udpProcPayloads is the deterministic per-rank payload pattern every
// process derives independently (no cross-process coordination needed). It
// is the netstat experiment's pattern, so the -exp netstat fleet run and
// the plain -exp live -procs loop exercise identical schedules.
func udpProcPayloads(K, rank int) map[int][]byte {
	cfg := experiments.DefaultNetstat()
	cfg.K, cfg.Dests, cfg.Bytes = K, udpProcDests, udpProcBytes
	return experiments.NetstatPayloads(cfg, rank)
}

// runUDPProcs is the parent of the plain replay mode: bind all K sockets,
// fork P children each inheriting its slice, wait for the collective to
// finish.
func runUDPProcs(cfg benchConfig) error {
	K, procs := liveK, cfg.procs
	if cfg.transport != "udp" {
		return fmt.Errorf("-procs %d requires -transport udp", procs)
	}
	if procs < 2 || K%procs != 0 {
		return fmt.Errorf("-procs must be a divisor of %d greater than 1, got %d", K, procs)
	}
	fmt.Printf("udp multi-process loopback: K=%d over %d processes (%d ranks each), %d replay iterations\n",
		K, procs, K/procs, udpProcIters)
	_, err := launchUDPProcs(procs, "")
	return err
}

// launchUDPProcs binds the world's sockets, re-execs P children each
// inheriting its rank slice, and waits. In "netstat" mode every child also
// inherits the write end of a pipe (at fd 3+count, after its sockets) and
// ships its encoded telemetry snapshot back; the decoded snapshots are
// returned in child order. In plain mode the returned slice is nil.
func launchUDPProcs(procs int, exp string) ([]telemetry.Snapshot, error) {
	K := liveK
	conns, addrs, err := udpnet.Bind(K)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	per := K / procs
	var cmds []*exec.Cmd
	var readers []*os.File
	for p := 0; p < procs; p++ {
		lo := p * per
		files := make([]*os.File, per)
		for i := range files {
			f, err := conns[lo+i].File()
			if err != nil {
				return nil, err
			}
			files[i] = f
		}
		if exp == "netstat" {
			r, w, err := os.Pipe()
			if err != nil {
				return nil, err
			}
			files = append(files, w)
			readers = append(readers, r)
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			udpChildEnv+"=1",
			udpExpEnv+"="+exp,
			fmt.Sprintf("STFW_UDP_SIZE=%d", K),
			fmt.Sprintf("STFW_UDP_FIRST=%d", lo),
			fmt.Sprintf("STFW_UDP_COUNT=%d", per),
			"STFW_UDP_ADDRS="+strings.Join(addrs, ","))
		cmd.ExtraFiles = files
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start child %d: %w", p, err)
		}
		// The child owns dups of the fds now; drop the parent's copies.
		for _, f := range files {
			f.Close()
		}
		cmds = append(cmds, cmd)
	}
	// Snapshots can exceed the pipe buffer, so drain concurrently with the
	// children's execution — a child blocked on its final write would
	// deadlock against a parent blocked in Wait.
	blobs := make([][]byte, len(readers))
	readErrs := make([]error, len(readers))
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func(i int, r *os.File) {
			defer wg.Done()
			defer r.Close()
			blobs[i], readErrs[i] = io.ReadAll(r)
		}(i, r)
	}
	var firstErr error
	for p, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("child %d: %w", p, err)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if exp != "netstat" {
		return nil, nil
	}
	snaps := make([]telemetry.Snapshot, len(blobs))
	for i, blob := range blobs {
		if readErrs[i] != nil {
			return nil, fmt.Errorf("child %d snapshot: %w", i, readErrs[i])
		}
		s, err := telemetry.DecodeSnapshot(blob)
		if err != nil {
			return nil, fmt.Errorf("child %d snapshot: %w", i, err)
		}
		snaps[i] = s
	}
	return snaps, nil
}

// runUDPChild is one slice of the multi-process world: rebuild the local
// sockets from inherited descriptors, join the world via NewGroup, and run
// the mode the parent requested.
func runUDPChild() error {
	size, err := strconv.Atoi(os.Getenv("STFW_UDP_SIZE"))
	if err != nil {
		return fmt.Errorf("STFW_UDP_SIZE: %w", err)
	}
	first, err := strconv.Atoi(os.Getenv("STFW_UDP_FIRST"))
	if err != nil {
		return fmt.Errorf("STFW_UDP_FIRST: %w", err)
	}
	count, err := strconv.Atoi(os.Getenv("STFW_UDP_COUNT"))
	if err != nil {
		return fmt.Errorf("STFW_UDP_COUNT: %w", err)
	}
	addrs := strings.Split(os.Getenv("STFW_UDP_ADDRS"), ",")
	if len(addrs) != size {
		return fmt.Errorf("got %d addrs for world size %d", len(addrs), size)
	}
	local := make([]int, count)
	conns := make([]*net.UDPConn, count)
	for i := 0; i < count; i++ {
		local[i] = first + i
		f := os.NewFile(uintptr(3+i), fmt.Sprintf("udp-rank-%d", first+i))
		pc, err := net.FilePacketConn(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("rank %d socket: %w", first+i, err)
		}
		uc, ok := pc.(*net.UDPConn)
		if !ok {
			return fmt.Errorf("rank %d: inherited fd is %T, not UDP", first+i, pc)
		}
		conns[i] = uc
	}
	w, err := udpnet.NewGroup(udpnet.GroupConfig{Size: size, Local: local, Conns: conns, Addrs: addrs})
	if err != nil {
		return err
	}
	defer w.Close()
	if os.Getenv(udpExpEnv) == "netstat" {
		return runNetstatChild(w, size, count)
	}
	tp, err := vpt.NewBalanced(size, udpProcDim)
	if err != nil {
		return err
	}
	start := time.Now()
	err = runtime.Run(w.Comms(), func(c runtime.Comm) error {
		payloads := udpProcPayloads(size, c.Rank())
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		for i := 0; i < udpProcIters; i++ {
			if _, err := p.Run(c, payloads); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil {
		return err
	}
	st := w.Stats()
	fmt.Printf("ranks [%d,%d): %d data dgrams in %d batches, %d resends, %d ack dgrams, %d acks piggybacked, %d stage acks, %d credit stalls, %v elapsed\n",
		first, first+count, st.DataSent, st.Batches, st.Resends, st.AckDgrams, st.AcksPiggybacked, st.StageAcks, st.CreditStalls,
		time.Since(start).Round(time.Millisecond))
	return nil
}

// runNetstatChild runs the instrumented netstat collective over this
// process's rank slice and ships the registry snapshot to the parent over
// the inherited pipe (fd 3+count, right after the socket fds).
func runNetstatChild(w *udpnet.World, size, count int) error {
	ncfg := experiments.DefaultNetstat()
	ncfg.K = size
	reg, err := telemetry.New(telemetry.Config{Ranks: size, Stages: ncfg.Dim})
	if err != nil {
		return err
	}
	if err := experiments.NetstatRun(ncfg, reg, w.Comms()); err != nil {
		return err
	}
	out := os.NewFile(uintptr(3+count), "snapshot-pipe")
	if out == nil {
		return fmt.Errorf("netstat child: snapshot pipe fd %d missing", 3+count)
	}
	if _, err := out.Write(telemetry.EncodeSnapshot(reg.Snapshot())); err != nil {
		out.Close()
		return fmt.Errorf("netstat child: snapshot write: %w", err)
	}
	return out.Close()
}
