package obs

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDebugServerConcurrentScrapeStress hammers every debug endpoint
// while a "run" concurrently mutates the registry and tracer. Its job is to let the race detector see scrape-during-run
// interleavings; run it with -race. It also checks that every scrape
// returns 200 with a non-empty body (a scrape must never observe a torn
// snapshot or panic a handler).
func TestDebugServerConcurrentScrapeStress(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer()

	srv, err := StartDebugServer("127.0.0.1:0", DebugOptions{Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const (
		mutators = 4
		scrapers = 4
		iters    = 150
		scrapeN  = 25
	)
	var wg sync.WaitGroup
	var failures atomic.Int32

	// Mutators: the shape of a real run — counters and histograms with
	// varying label sets, spans begun and ended.
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("stress_total", L("worker", fmt.Sprint(m))).Inc()
				reg.Gauge("stress_gauge").Set(float64(i))
				reg.Histogram("stress_seconds", L("worker", fmt.Sprint(m))).Observe(float64(i) * 0.001)
				span := tr.Begin(0, "superstep", "stress", m, 0, L("round", fmt.Sprint(i)))
				child := tr.Begin(span, "compute", "stress", m, 1)
				tr.End(child)
				tr.End(span)
				if i%32 == 0 {
					tr.NameTrack(m, i/32, fmt.Sprintf("track %d", i/32))
				}
			}
		}(m)
	}

	paths := []string{"/metrics.json", "/debug/trace"}
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < scrapeN; i++ {
				path := paths[(s+i)%len(paths)]
				resp, err := http.Get(base + path)
				if err != nil {
					failures.Add(1)
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
					failures.Add(1)
					t.Errorf("GET %s: status=%d len=%d err=%v", path, resp.StatusCode, len(body), err)
					return
				}
			}
		}(s)
	}

	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d scrape failures under concurrent mutation", failures.Load())
	}
	// The trace endpoint must still emit a validator-clean document after
	// the dust settles.
	resp, err := http.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChromeTrace(body); err != nil || n == 0 {
		t.Fatalf("post-stress trace invalid: n=%d err=%v", n, err)
	}
}
