package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

func TestDebugServerServesMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_total").Add(7)
	reg.Histogram("test_seconds").Observe(0.5)

	tr := NewTracer()
	tr.Add(0, "root", "test", 0, 0, 0, 100)

	srv, err := StartDebugServer("127.0.0.1:0", DebugOptions{Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// /metrics.json is the one exposition; the Prometheus text route is gone.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics: status %d, want 404", resp.StatusCode)
	}

	var snaps []MetricSnapshot
	if err := json.Unmarshal(get("/metrics.json"), &snaps); err != nil {
		t.Fatalf("/metrics.json is not JSON: %v", err)
	}
	found := false
	for _, s := range snaps {
		if s.Name == "test_total" && s.Value == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("counter missing from /metrics.json: %v", snaps)
	}

	if n, err := ValidateChromeTrace(get("/debug/trace")); err != nil || n != 1 {
		t.Fatalf("/debug/trace invalid: n=%d err=%v", n, err)
	}

	if len(get("/debug/pprof/")) == 0 {
		t.Fatal("pprof index empty")
	}
}
