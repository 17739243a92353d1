package main

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"stfw/internal/telemetry"
)

func TestRunEndToEnd(t *testing.T) {
	// Small real runs through the CLI path: both methods, both transports.
	if err := run(config{matrix: "sparsine", k: 16, dim: 3, scale: 64, method: "stfw", transport: "chan", iters: 1}); err != nil {
		t.Errorf("stfw/chan: %v", err)
	}
	if err := run(config{matrix: "sparsine", k: 8, dim: 2, scale: 64, method: "bl", transport: "chan", iters: 1}); err != nil {
		t.Errorf("bl/chan: %v", err)
	}
	if err := run(config{matrix: "sparsine", k: 4, dim: 2, scale: 64, method: "stfw", transport: "tcp", iters: 1}); err != nil {
		t.Errorf("stfw/tcp: %v", err)
	}
	if err := run(config{matrix: "sparsine", k: 4, dim: 2, scale: 64, method: "stfw", transport: "carrierpigeon", iters: 1}); err == nil {
		t.Error("unknown transport accepted")
	}
	if err := run(config{matrix: "nope", k: 4, dim: 2, scale: 64, method: "stfw", transport: "chan", iters: 1}); err == nil {
		t.Error("unknown matrix accepted")
	}
}

// TestRunWithTelemetry drives the full observability path through the CLI:
// live collection, trace export, debug endpoint, and profiles in one run.
// The K=64 case is the acceptance check that the paper's configuration
// produces a Perfetto-valid trace with one named track per rank and
// per-stage slices matching the topology dimension.
func TestRunWithTelemetry(t *testing.T) {
	for _, c := range []struct {
		matrix string
		k, dim int
	}{
		{"sparsine", 8, 3},
		{"gupta2", 64, 3},
	} {
		t.Run(c.matrix, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{
				matrix: c.matrix, k: c.k, dim: c.dim, scale: 64,
				method: "stfw", transport: "chan", iters: 2,
				telemetry:  true,
				traceOut:   filepath.Join(dir, "trace.json"),
				debugAddr:  "127.0.0.1:0",
				cpuProfile: filepath.Join(dir, "cpu.pprof"),
				memProfile: filepath.Join(dir, "mem.pprof"),
			}
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			st, err := telemetry.ValidateTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Tracks) != cfg.k {
				t.Fatalf("trace has %d tracks, want one per rank (%d)", len(st.Tracks), cfg.k)
			}
			for r, tr := range st.Tracks {
				if !tr.Named {
					t.Fatalf("rank %d track unnamed", r)
				}
				if len(tr.Stages) != cfg.dim {
					t.Fatalf("rank %d saw %d distinct stages, want %d", r, len(tr.Stages), cfg.dim)
				}
			}
			for _, p := range []string{cfg.cpuProfile, cfg.memProfile} {
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Fatalf("profile %s missing or empty (err=%v)", p, err)
				}
			}
		})
	}
}

// TestRunTraceOutImpliesTelemetry: -trace-out alone must produce a valid
// trace without -telemetry, and the BL method gets a single-stage registry.
func TestRunTraceOutImpliesTelemetry(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "bl.json")
	cfg := config{
		matrix: "sparsine", k: 4, dim: 2, scale: 64,
		method: "bl", transport: "chan", iters: 1, traceOut: traceOut,
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateTrace(data); err != nil {
		t.Fatal(err)
	}
}

// TestDebugEndpointLive checks the debug server standalone: ServeDebug on
// an ephemeral port answers /debug/telemetry while a registry is live.
func TestDebugEndpointLive(t *testing.T) {
	reg := telemetry.MustNew(telemetry.Config{Ranks: 2, Stages: 1})
	ds, err := reg.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/telemetry: %d", resp.StatusCode)
	}
}
