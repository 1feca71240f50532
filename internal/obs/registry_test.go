package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("msgs_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter=%d want 42", got)
	}
	g := reg.Gauge("mem_ratio")
	g.Set(1.5)
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge=%v want 0.75", got)
	}
}

func TestCounterRejectsNegativeDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative counter delta")
		}
	}()
	NewRegistry().Counter("c").Add(-1)
}

func TestSameNameLabelsReturnsSameInstance(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("sent", L("machine", "0"), L("task", "bppr"))
	// Label order must not matter.
	b := reg.Counter("sent", L("task", "bppr"), L("machine", "0"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("instances diverged")
	}
	// A different label value is a different series.
	other := reg.Counter("sent", L("machine", "1"), L("task", "bppr"))
	if other == a || other.Value() != 0 {
		t.Fatal("distinct labels must yield a distinct counter")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("latency", L("phase", "net"))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want panic when re-registering a counter as a histogram")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "latency") {
			t.Fatalf("panic should name the colliding metric, got %v", r)
		}
	}()
	reg.Histogram("latency", L("phase", "net"))
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []int) []MetricSnapshot {
		reg := NewRegistry()
		names := []string{"zz_last", "aa_first", "mm_mid"}
		for _, i := range order {
			reg.Counter(names[i], L("m", "x")).Add(int64(i + 1))
		}
		return reg.Snapshot()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 1, 0})
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("snapshot lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Value != b[i].Value {
			t.Fatalf("snapshot order depends on registration order: %v vs %v", a, b)
		}
	}
	if a[0].Name != "aa_first" {
		t.Fatalf("snapshot not sorted: first=%s", a[0].Name)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("shared").Inc()
				reg.Histogram("h").Observe(float64(j))
				reg.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter=%d want 8000", got)
	}
	if st := reg.Histogram("h").Stats(); st.Count != 8000 {
		t.Fatalf("histogram count=%d want 8000", st.Count)
	}
}

// TestRegistryWriteJSONGolden pins the one metrics exposition byte for
// byte: field names and order, label rendering, omitted zero fields,
// indentation and the trailing newline. /metrics.json on vcserve and the
// debug server serve these bytes, and the end-to-end benchmark and the
// serve smoke script parse them, so any change here must be deliberate.
func TestRegistryWriteJSONGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", L("task", "mssp")).Add(3)
	reg.Counter("jobs_total", L("task", "bppr")).Add(1)
	reg.Gauge("sim_seconds").Set(12.5)
	reg.Histogram("round_seconds", L("cluster", "g8")).Observe(2.5)

	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	golden := `[
  {
    "name": "jobs_total",
    "labels": [
      {
        "key": "task",
        "value": "bppr"
      }
    ],
    "kind": "counter",
    "value": 1
  },
  {
    "name": "jobs_total",
    "labels": [
      {
        "key": "task",
        "value": "mssp"
      }
    ],
    "kind": "counter",
    "value": 3
  },
  {
    "name": "round_seconds",
    "labels": [
      {
        "key": "cluster",
        "value": "g8"
      }
    ],
    "kind": "histogram",
    "count": 1,
    "sum": 2.5,
    "min": 2.5,
    "max": 2.5,
    "p50": 2.5,
    "p95": 2.5,
    "p99": 2.5
  },
  {
    "name": "sim_seconds",
    "kind": "gauge",
    "value": 12.5
  }
]
`
	if b.String() != golden {
		t.Fatalf("exposition diverges from golden:\n--- got ---\n%s\n--- want ---\n%s", b.String(), golden)
	}
}
