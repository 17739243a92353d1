package main

import "fmt"

// kind selects what one operation of a workload is.
type kind int

const (
	// kindSpMV: one op is one compiled spmv.Session.Multiply on every rank.
	kindSpMV kind = iota
	// kindCG: one op is one iterative.CG solve to Tol=1e-10.
	kindCG
	// kindChurn: one op is one cycle of churnReplays compiled Replay.Run
	// calls followed by one Discover -> Patch -> PatchCompiled round.
	kindChurn
	// kindReplay: one op is one core.Persistent.Run (byte-map path).
	kindReplay
)

// spec is one workload. The sizes are data so that the tests can run a K=8
// miniature of every workload through exactly the code the benchmark runs.
type spec struct {
	name      string
	kind      kind
	transport string // chanpt, udpnet, tcpnet or hier (chanpt inner, udpnet outer)
	matrix    string // sparse catalog analog (kindSpMV, kindCG)
	scale     int    // catalog shrink factor
	K         int
	dims      []int // VPT dimensions; kindReplay takes them from hier.Plan instead
	telemetry bool  // the program's own telemetry.Registry is on
	// chunk is how many ops every rank free-runs between two looks at the
	// clock. Outputs are checked against the serial reference at each chunk
	// boundary, outside the timed interval. Sized so a chunk lasts 0.2-0.5 s
	// on the 2-core box the benchmark was calibrated on.
	chunk int
}

// Churn workload shape: payload pairs per rank, words per pair, the share of
// pairs toggled by each patch round and the replays between two rounds.
const (
	churnDests    = 8
	churnMinWords = 32
	churnMaxWords = 255
	churnXLen     = 256
	churnFrac     = 0.015
	churnReplays  = 40
)

// Replay workload shape: destinations per rank and payload bytes per pair.
const (
	replayDests = 8
	replayBytes = 256
)

// workloads is the suite. BENCHMARK.json and README.md say why each exists.
var workloads = []spec{
	{name: "spmv-udp", kind: kindSpMV, transport: "udpnet", matrix: "gupta2", scale: 8, K: 64, dims: []int{4, 4, 4}, chunk: 100},
	{name: "spmv-chan", kind: kindSpMV, transport: "chanpt", matrix: "gupta2", scale: 8, K: 64, dims: []int{4, 4, 4}, chunk: 500},
	{name: "spmv-chan-tele", kind: kindSpMV, transport: "chanpt", matrix: "gupta2", scale: 8, K: 64, dims: []int{4, 4, 4}, telemetry: true, chunk: 500},
	{name: "spmv-tcp-wide", kind: kindSpMV, transport: "tcpnet", matrix: "coAuthorsDBLP", scale: 1, K: 8, dims: []int{2, 2, 2}, chunk: 100},
	{name: "cg-udp", kind: kindCG, transport: "udpnet", matrix: "gupta2", scale: 8, K: 64, dims: []int{4, 4, 4}, chunk: 1},
	{name: "churn-chan", kind: kindChurn, transport: "chanpt", K: 64, dims: []int{4, 4, 4}, chunk: 20},
	{name: "replay-hier", kind: kindReplay, transport: "hier", K: 64, chunk: 200},
}

func findWorkload(name string) (spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
