package main

// Multi-process loopback mode of the netstat experiment: -exp netstat
// -procs P splits the K-rank udpnet world across P OS processes, each
// owning a contiguous slice of ranks behind its own sockets. The parent
// binds every rank's UDP socket up front (so no rendezvous protocol is
// needed), re-execs itself P times passing each child its slice via
// inherited file descriptors, and waits. The children form one world
// purely over the wire — sends, credits, acks, and the barrier all cross
// process boundaries — and each runs experiments.NetstatRun over its
// slice.
//
// Every child inherits one extra descriptor: a pipe on which, after its
// instrumented run, it writes its telemetry registry's encoded snapshot
// (see telemetry.EncodeSnapshot). The parent decodes and merges the
// snapshots into one fleet view (see netstat.go).

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"stfw/internal/experiments"
	"stfw/internal/telemetry"
	"stfw/internal/transport/udpnet"
)

const udpChildEnv = "STFW_UDP_CHILD"

// launchUDPProcs binds the K-rank world's sockets, re-execs procs children
// each inheriting its rank slice plus the write end of a snapshot pipe (at
// fd 3+count, after its sockets), and returns the decoded snapshots in
// child order. Any child failing — to start, to exit cleanly, or to ship
// its snapshot — kills the others; every child is reaped and every pipe
// end closed before the first error is returned.
func launchUDPProcs(K, procs int) ([]telemetry.Snapshot, error) {
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
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for p := 0; p < procs; p++ {
		cmd, r, err := startUDPChild(exe, conns[p*per:(p+1)*per], p*per, addrs)
		if err != nil {
			// The children already running would wait forever on peers
			// that never start.
			for _, c := range cmds {
				c.Process.Kill()
				c.Wait()
			}
			return nil, fmt.Errorf("start child %d: %w", p, err)
		}
		cmds = append(cmds, cmd)
		readers = append(readers, r)
	}
	// Snapshots can exceed the pipe buffer, so each is drained beside its
	// child's execution — a child blocked on its final write would
	// deadlock against a parent blocked in Wait.
	blobs := make([][]byte, procs)
	err = waitAll(cmds, func(p int) (err error) {
		blobs[p], err = io.ReadAll(readers[p])
		return err
	})
	if err != nil {
		return nil, err
	}
	snaps := make([]telemetry.Snapshot, procs)
	for p, blob := range blobs {
		if snaps[p], err = telemetry.DecodeSnapshot(blob); err != nil {
			return nil, fmt.Errorf("child %d snapshot: %w", p, err)
		}
	}
	return snaps, nil
}

// startUDPChild re-execs this binary as the owner of ranks
// [first, first+len(conns)) and returns the started command with the read
// end of its snapshot pipe. The child owns dups of the descriptors once
// started, so the parent's copies are dropped on every path.
func startUDPChild(exe string, conns []*net.UDPConn, first int, addrs []string) (*exec.Cmd, *os.File, error) {
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, c := range conns {
		f, err := c.File()
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, nil, err
	}
	files = append(files, w)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		udpChildEnv+"=1",
		fmt.Sprintf("STFW_UDP_FIRST=%d", first),
		fmt.Sprintf("STFW_UDP_COUNT=%d", len(conns)),
		"STFW_UDP_ADDRS="+strings.Join(addrs, ","))
	cmd.ExtraFiles = files
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		r.Close()
		return nil, nil, err
	}
	return cmd, r, nil
}

// waitAll waits on every started child at once, running drain(p) beside
// child p first (a child's pipe reaches EOF when the child exits or is
// killed, so a drain never outlives its child). The first failure — a
// drain error or an unclean exit — kills every child still running: a
// survivor would sit forever in a receive from the dead peer. All
// children are reaped before waitAll returns that first error, naming the
// child.
func waitAll(cmds []*exec.Cmd, drain func(p int) error) error {
	done := make(chan error, len(cmds))
	for p, cmd := range cmds {
		go func(p int, cmd *exec.Cmd) {
			err := drain(p)
			if err != nil {
				// Nobody reads this child's pipe any more; it must not
				// block on the write.
				cmd.Process.Kill()
			}
			if werr := cmd.Wait(); err == nil {
				err = werr
			}
			if err != nil {
				err = fmt.Errorf("child %d: %w", p, err)
			}
			done <- err
		}(p, cmd)
	}
	var first error
	for range cmds {
		if err := <-done; err != nil && first == nil {
			first = err
			for _, c := range cmds {
				c.Process.Kill() // already-exited children report ErrProcessDone
			}
		}
	}
	return first
}

// runUDPChild is one slice of the multi-process world: rebuild the local
// sockets from inherited descriptors, join the world via NewGroup, run the
// instrumented netstat collective over the slice, and ship the registry
// snapshot to the parent over the inherited pipe (fd 3+count, right after
// the socket fds).
func runUDPChild() error {
	first, err := strconv.Atoi(os.Getenv("STFW_UDP_FIRST"))
	if err != nil {
		return fmt.Errorf("STFW_UDP_FIRST: %w", err)
	}
	count, err := strconv.Atoi(os.Getenv("STFW_UDP_COUNT"))
	if err != nil {
		return fmt.Errorf("STFW_UDP_COUNT: %w", err)
	}
	addrs := strings.Split(os.Getenv("STFW_UDP_ADDRS"), ",")
	size := len(addrs)
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
		return fmt.Errorf("snapshot pipe fd %d missing", 3+count)
	}
	if _, err := out.Write(telemetry.EncodeSnapshot(reg.Snapshot())); err != nil {
		out.Close()
		return fmt.Errorf("snapshot write: %w", err)
	}
	return out.Close()
}
