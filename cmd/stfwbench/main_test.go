package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stfw/internal/experiments"
	"stfw/internal/telemetry"
)

func TestRunDispatch(t *testing.T) {
	cfg := benchConfig{Config: experiments.Config{Scale: 64}}
	// The live measurements moved to bench/; their names must not dispatch.
	for _, exp := range []string{"nope", "live", "hier", "dynamic"} {
		err := run(cfg, exp)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("run(%q) = %v, want unknown experiment", exp, err)
		}
	}
	// A fast experiment end-to-end through the CLI dispatcher.
	if err := run(cfg, "stencil"); err != nil {
		t.Errorf("stencil: %v", err)
	}
	if err := run(cfg, "fig1"); err != nil {
		t.Errorf("fig1: %v", err)
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns what
// it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = saved }()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunNetstat runs the netstat experiment in-process through the CLI
// path: the K=64 replay crosses real loopback datagrams, the report is
// built from measured ack RTTs, and the exported trace is Perfetto-valid
// with one named track per rank.
func TestRunNetstat(t *testing.T) {
	cfg := benchConfig{traceOut: filepath.Join(t.TempDir(), "netstat.json")}
	out := captureStdout(t, func() error { return run(cfg, "netstat") })
	for _, want := range []string{"srtt_us", "measured vs model"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// A model calibrated from zero RTT samples fits its only free
	// parameter to the residual and cannot diverge.
	if strings.Contains(out, "alpha from 0 ack RTT samples") {
		t.Errorf("no ack RTT samples measured:\n%s", out)
	}
	data, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if K := experiments.DefaultNetstat().K; len(st.Tracks) != K {
		t.Fatalf("trace has %d tracks, want one per rank (%d)", len(st.Tracks), K)
	}
	for r, tr := range st.Tracks {
		if !tr.Named {
			t.Fatalf("rank %d track unnamed", r)
		}
	}
}

// TestUDPProcsLoopback end-to-ends the -procs multi-process mode: it
// builds the real binary, launches the parent, and checks the merged fleet
// report. This is the only path that exercises fd-inheritance across exec
// (NewGroup from net.FilePacketConn) and the snapshot pipe.
func TestUDPProcsLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the stfwbench binary")
	}
	bin := filepath.Join(t.TempDir(), "stfwbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-exp", "netstat", "-procs", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{"over 2 processes", "srtt_us", "measured vs model"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWaitAllFirstFailure: one child failing — by exit status or by a
// broken snapshot pipe — must end the wait with that child's error and
// take the others down: a surviving rank slice would block forever in a
// receive from the dead peer. The failing child sits at either index;
// waiting in index order hangs on the second case.
func TestWaitAllFirstFailure(t *testing.T) {
	for _, c := range []struct {
		name     string
		exits    int // index of the child that exits 3, -1 for none
		drainErr int // index of the child whose drain fails, -1 for none
		want     string
	}{
		{"first exits", 0, -1, "child 0: exit status 3"},
		{"second exits", 1, -1, "child 1: exit status 3"},
		{"second's pipe breaks", -1, 1, "child 1: " + io.ErrUnexpectedEOF.Error()},
	} {
		cmds := []*exec.Cmd{exec.Command("sleep", "60"), exec.Command("sleep", "60")}
		if c.exits >= 0 {
			cmds[c.exits] = exec.Command("sh", "-c", "exit 3")
		}
		for _, cmd := range cmds {
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
		}
		errc := make(chan error, 1)
		go func() {
			errc <- waitAll(cmds, func(p int) error {
				if p == c.drainErr {
					return io.ErrUnexpectedEOF
				}
				return nil
			})
		}()
		var err error
		select {
		case err = <-errc:
		case <-time.After(5 * time.Second):
			for _, cmd := range cmds {
				cmd.Process.Kill()
			}
			t.Fatalf("%s: waitAll still blocked after 5s", c.name)
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: waitAll = %v, want %q", c.name, err, c.want)
		}
		for i, cmd := range cmds {
			if cmd.ProcessState == nil {
				t.Errorf("%s: child %d not reaped", c.name, i)
			}
		}
	}
}
