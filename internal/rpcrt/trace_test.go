package rpcrt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/obs"
)

// TestJobTraceThroughRecovery is the rpcrt half of the tracing acceptance
// test: a fault-injected MSSP run with a tracer attached must (a) export a
// validator-clean Chrome trace whose worker spans parent under the master's
// RPC spans via the wire-level trace context, and (b) record the crash: the
// failed superstep span carries the error, and a recovery span naming the
// restarted worker has the restore spans beneath it. With VCMT_TRACE_DIR
// set (CI points it at its artifact directory), the trace is written there
// as rpcrt-trace.json.
func TestJobTraceThroughRecovery(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.5, 3)
	c := startTestCluster(t, g, 3)
	c.SetCheckpoint(t.TempDir(), 2)
	c.SetFaultPlan(mustPlan(t, "crash:worker=1,step=4"))

	tracer := obs.NewTracer()
	c.SetTracer(tracer)

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
	if dir := os.Getenv("VCMT_TRACE_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
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
	// Cross-process parenting: every worker-side compute span must
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

	// (b) The postmortem: the failed superstep and the recovery it caused.
	arg := func(s obs.Span, key string) string {
		for _, l := range s.Args {
			if l.Key == key {
				return l.Value
			}
		}
		return ""
	}
	failed, recovered := 0, 0
	for _, s := range spans {
		switch {
		case s.Name == "superstep" && arg(s, "error") != "":
			failed++
			if arg(s, "round") != "4" {
				t.Fatalf("failed superstep span %+v, want round 4", s)
			}
		case s.Name == "recovery":
			recovered++
			if arg(s, "restarted") != "1" || arg(s, "rollback_to") != "2" || arg(s, "rounds_lost") != "1" {
				t.Fatalf("recovery span %+v, want worker 1 restarted, rollback to 2, 1 round lost", s)
			}
		}
	}
	if failed != 1 || recovered != 1 {
		t.Fatalf("%d failed supersteps and %d recoveries in the trace, want 1 and 1", failed, recovered)
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
