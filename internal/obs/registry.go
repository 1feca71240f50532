// Package obs is the run-telemetry subsystem: a metrics registry
// (counters, gauges, streaming histograms keyed by name+labels), phase
// timers, a structured JSONL event log, per-machine time series, and
// exporters — a machine-readable JSON run report, CSV traces, the
// registry's one metrics exposition (Registry.WriteJSON, served at
// /metrics.json) and a live debug HTTP endpoint (metrics, spans, pprof).
//
// The paper's contribution is measurement: every insight (round–congestion
// tradeoff, memory-bound vs disk-bound states, straggler machines under
// skewed partitions, §4–§5) rests on per-machine, per-superstep statistics.
// obs makes that layer first-class. Everything derived from the simulator
// is deterministic — simulated-time metrics come from the cost model, never
// from wall clock — so reports are byte-stable across runs with the same
// seed. Wall-clock timers exist too (for the real rpcrt runtime) but are
// kept out of the deterministic report schema.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind enumerates the metric types a registry can hold.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing int64 metric. Safe for concurrent
// use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; negative deltas panic (counters only go up).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("obs: counter decremented")
	}
	c.v.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. Safe for concurrent
// use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds metrics keyed by name+labels. Looking up the same
// name+labels returns the same instance; registering the same name+labels
// as a different kind panics (a label collision is a programming error, and
// silently returning a fresh metric would corrupt both series).
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

type entry struct {
	name   string
	labels []Label
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// metricKey builds the canonical map key: name plus labels sorted by key.
func metricKey(name string, labels []Label) (string, []Label) {
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Key != sorted[j].Key {
			return sorted[i].Key < sorted[j].Key
		}
		return sorted[i].Value < sorted[j].Value
	})
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range sorted {
		sb.WriteByte('{')
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
		sb.WriteByte('}')
	}
	return sb.String(), sorted
}

func (r *Registry) lookup(name string, labels []Label, kind Kind) *entry {
	key, sorted := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested as %s",
				key, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: sorted, kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindHistogram:
		e.h = newHistogram()
	}
	r.entries[key] = e
	return e
}

// Counter returns (creating if needed) the counter with this name+labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, labels, KindCounter).c
}

// Gauge returns (creating if needed) the gauge with this name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, labels, KindGauge).g
}

// Histogram returns (creating if needed) the histogram with this
// name+labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, labels, KindHistogram).h
}

// MetricSnapshot is one metric's exported state. Quantile fields are only
// set for histograms; Value only for counters and gauges.
type MetricSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value,omitempty"`
	Count  int64   `json:"count,omitempty"`
	Sum    float64 `json:"sum,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	P50    float64 `json:"p50,omitempty"`
	P95    float64 `json:"p95,omitempty"`
	P99    float64 `json:"p99,omitempty"`
}

// Snapshot exports every metric, sorted by name then labels, so the output
// is deterministic regardless of registration or update order.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	keys := make([]string, 0, len(r.entries))
	for k := range r.entries {
		keys = append(keys, k)
	}
	entries := make(map[string]*entry, len(r.entries))
	for k, e := range r.entries {
		entries[k] = e
	}
	r.mu.Unlock()
	sort.Strings(keys)
	out := make([]MetricSnapshot, 0, len(keys))
	for _, k := range keys {
		e := entries[k]
		s := MetricSnapshot{Name: e.name, Labels: e.labels, Kind: e.kind.String()}
		switch e.kind {
		case KindCounter:
			s.Value = float64(e.c.Value())
		case KindGauge:
			s.Value = e.g.Value()
		case KindHistogram:
			st := e.h.Stats()
			s.Count = st.Count
			s.Sum = st.Sum
			s.Min = st.Min
			s.Max = st.Max
			s.P50 = st.P50
			s.P95 = st.P95
			s.P99 = st.P99
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON, one trailing newline. It
// is the registry's one exposition: vcserve's and the debug server's
// /metrics.json both serve exactly these bytes.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
