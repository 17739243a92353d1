package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Live inspection endpoint: a per-process HTTP mux that exposes the
// registry while a run executes. On a tcpnet cluster every process serves
// its own /debug, so a multi-machine run is inspectable mid-flight:
//
//	/debug/           index
//	/debug/vars       expvar (cmdline, memstats, and the live telemetry totals)
//	/debug/pprof/     net/http/pprof profiles
//	/debug/telemetry  JSON snapshot of all counters and histograms
//	/debug/trace      Chrome trace-event JSON of the span rings (Perfetto)
//	/debug/hist       plain-text log-scale histograms

// currentRegistry backs the process-wide expvar publication: expvar allows
// each name to be published once per process, while tests and sequential
// runs create many registries. The most recently served registry wins.
var (
	currentRegistry atomic.Pointer[Registry]
	expvarOnce      sync.Once
)

func publishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("stfw_telemetry", expvar.Func(func() any {
			g := currentRegistry.Load()
			if g == nil {
				return nil
			}
			s := g.Snapshot()
			return map[string]any{
				"ranks":       len(s.Ranks),
				"uptime_ns":   time.Since(s.Epoch).Nanoseconds(),
				"totals":      s.Totals(),
				"frame_sizes": s.FrameSizes,
				"stage_ns":    s.StageNs,
			}
		}))
	})
}

// DebugServer is a running /debug endpoint; Close stops it.
type DebugServer struct {
	Addr string // the bound address, e.g. "127.0.0.1:8642"
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// Handler returns the /debug mux for the registry, for callers that embed
// it into their own server. Nil-safe by construction: the mux is built
// eagerly and each telemetry route guards g itself (Snapshot and
// WriteHistograms tolerate nil; /debug/trace checks explicitly).
func (g *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/" && r.URL.Path != "/debug" && r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "stfw debug endpoint\n\n"+
			"/debug/vars       expvar counters\n"+
			"/debug/pprof/     profiles\n"+
			"/debug/telemetry  counter snapshot (JSON)\n"+
			"/debug/trace      trace-event JSON (open in ui.perfetto.dev)\n"+
			"/debug/hist       log-scale histograms (text)\n")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s := g.Snapshot()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if g == nil {
			http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		g.WriteTrace(w)
	})
	mux.HandleFunc("/debug/hist", func(w http.ResponseWriter, r *http.Request) {
		g.WriteHistograms(w)
	})
	return mux
}

// FleetHandler serves an already-merged fleet snapshot (see
// MergeSnapshots) the way Handler serves a live registry — one endpoint
// for the whole multi-process world:
//
//	/debug/fleet            merged snapshot (JSON)
//	/debug/fleet/trace      merged trace-event JSON, world-epoch timeline
//	/debug/fleet/straggler  per-stage critical-path table (text)
//	/debug/fleet/hist       merged log-scale histograms (text)
func FleetHandler(s Snapshot) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/fleet", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s)
	})
	mux.HandleFunc("/debug/fleet/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteSnapshotTrace(w, s)
	})
	mux.HandleFunc("/debug/fleet/straggler", func(w http.ResponseWriter, r *http.Request) {
		WriteStragglers(w, s.StageStragglers())
	})
	mux.HandleFunc("/debug/fleet/hist", func(w http.ResponseWriter, r *http.Request) {
		s.FrameSizes.render(w, "frame sizes", "B")
		s.StageNs.render(w, "stage latencies", "ns")
	})
	return mux
}

// ServeFleetDebug binds addr and serves the fleet endpoints for a merged
// snapshot until Close — the collector-side counterpart of ServeDebug.
func ServeFleetDebug(addr string, s Snapshot) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: fleet debug listen %s: %w", addr, err)
	}
	ds := &DebugServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: FleetHandler(s)},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(ds.done)
		ds.srv.Serve(ln)
	}()
	return ds, nil
}

// ServeDebug binds addr (e.g. "127.0.0.1:0" for an ephemeral port) and
// serves the /debug mux for this registry until Close. It also publishes
// the registry's totals under the expvar name "stfw_telemetry". Nil-safe:
// a nil registry still serves pprof and expvar, with telemetry routes
// reporting disabled — so -debug-addr works even without -telemetry.
func (g *Registry) ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug listen %s: %w", addr, err)
	}
	if g != nil {
		currentRegistry.Store(g)
	}
	publishExpvar()
	ds := &DebugServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: g.Handler()},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(ds.done)
		ds.srv.Serve(ln)
	}()
	return ds, nil
}

// Close stops the server and waits for its serve loop to exit.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	err := d.srv.Close()
	<-d.done
	return err
}
