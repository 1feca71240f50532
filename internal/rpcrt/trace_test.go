package rpcrt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/obs"
)

// flightDir returns where flight-recorder crash dumps should land:
// VCMT_FLIGHT_DIR when set (CI points this at its artifact directory so
// the dump from the fault-injected test run is uploaded), else a temp dir.
func flightDir(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("VCMT_FLIGHT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// TestJobTraceAndFlightRecorder is the rpcrt half of the tracing
// acceptance test: a fault-injected MSSP run with a tracer and flight
// recorder attached must (a) export a validator-clean Chrome trace whose
// worker spans parent under the master's RPC spans via the wire-level
// trace context, (b) show the crash as a recovery span with restore spans
// beneath it, and (c) dump the flight recorder to disk when the crash is
// detected.
func TestJobTraceAndFlightRecorder(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.5, 3)
	c := startTestCluster(t, g, 3)
	c.SetCheckpoint(t.TempDir(), 2)
	c.SetFaultPlan(mustPlan(t, "crash:worker=1,step=4"))

	tracer := obs.NewTracer()
	fr := obs.NewFlightRecorder(0)
	dir := flightDir(t)
	c.SetTracer(tracer)
	c.SetFlightRecorder(fr, dir)

	sources := []graph.VertexID{0, 7, 42}
	if _, err := c.RunMSSP(sources); err != nil {
		t.Fatal(err)
	}
	if c.Recoveries() != 1 {
		t.Fatalf("recoveries=%d want 1", c.Recoveries())
	}

	// (a) strict-decoder clean, with worker spans threaded under RPC spans.
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("rpcrt trace rejected: %v", err)
	} else if n == 0 {
		t.Fatal("empty rpcrt trace")
	}
	if dir := os.Getenv("VCMT_FLIGHT_DIR"); dir != "" {
		// CI artifact: keep the trace next to the flight dump.
		if err := os.WriteFile(filepath.Join(dir, "rpcrt-trace.json"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	spans := tracer.Spans()
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	names := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name]++
	}
	for _, want := range []string{"job", "superstep", "Worker.Step", "seed", "compute", "recv", "checkpoint", "restore", "recovery"} {
		if names[want] == 0 {
			t.Fatalf("no %q span in rpcrt trace; got %v", want, names)
		}
	}
	// (b) cross-process parenting: every worker-side compute span must
	// hang off a master RPC span, every restore span off the recovery
	// span, via the trace context carried in the wire frames.
	for _, s := range spans {
		switch s.Name {
		case "compute", "seed":
			p, ok := byID[s.Parent]
			if !ok || p.Name != "Worker.Step" {
				t.Fatalf("worker span %q parented under %+v, want an RPC span", s.Name, p)
			}
		case "recv":
			p, ok := byID[s.Parent]
			if !ok || (p.Name != "compute" && p.Name != "seed") {
				t.Fatalf("recv span parented under %+v, want sender's compute/seed span", p)
			}
		case "restore":
			p, ok := byID[s.Parent]
			if !ok || p.Name != "recovery" {
				t.Fatalf("restore span parented under %+v, want recovery", p)
			}
		}
	}

	// (c) the crash dump exists and is schema-valid.
	dumpPath := filepath.Join(dir, "flight-crash-1.json")
	data, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Rounds []struct {
			Round  int `json:"round"`
			Events []struct {
				Name string `json:"name"`
			} `json:"events"`
		} `json:"rounds"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("flight dump not JSON: %v", err)
	}
	if doc.Schema != "vcmt/flight-recorder/v1" {
		t.Fatalf("flight dump schema %q", doc.Schema)
	}
	found := false
	for _, r := range doc.Rounds {
		for _, ev := range r.Events {
			if ev.Name == "crash detected" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("flight dump lacks the crash-detected event: %s", data)
	}
}

// TestTraceOffIsZeroCost: with no tracer attached a job must run exactly
// as before — this is the hot path, and nil-receiver no-ops are the only
// acceptable overhead.
func TestTraceOffIsZeroCost(t *testing.T) {
	g := graph.GenerateChungLu(120, 480, 2.5, 5)
	c := startTestCluster(t, g, 2)
	if _, err := c.RunMSSP([]graph.VertexID{0, 11}); err != nil {
		t.Fatal(err)
	}
}
