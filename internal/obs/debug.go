package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer serves live run telemetry over HTTP:
//
//	/metrics.json  — the registry snapshot as JSON (Registry.WriteJSON)
//	/debug/trace   — completed spans as Chrome trace-event JSON (if a
//	                 tracer is attached)
//	/debug/pprof/  — the standard pprof handlers
//
// It exists for long or real (rpcrt) runs; short simulated runs finish
// before anyone can connect, but the endpoint still comes up first so flags
// can be smoke-tested.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// DebugOptions selects what a debug server exposes. Registry is required;
// Tracer is optional and /debug/trace 404s without it.
type DebugOptions struct {
	Registry *Registry
	Tracer   *Tracer
}

// StartDebugServer binds addr (e.g. ":6060" or "127.0.0.1:0") and serves
// opts in a background goroutine until Close.
func StartDebugServer(addr string, opts DebugOptions) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	reg := opts.Registry
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w) //nolint:errcheck // best-effort over HTTP
	})
	if opts.Tracer != nil {
		tr := opts.Tracer
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			tr.WriteChromeTrace(w) //nolint:errcheck // best-effort over HTTP
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	d := &DebugServer{ln: ln, srv: srv}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return d, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the server down.
func (d *DebugServer) Close() error { return d.srv.Close() }
