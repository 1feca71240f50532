package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanID identifies one span within a Tracer. IDs are assigned from a
// single monotonic counter, so a single-threaded producer (the simulator's
// collector) gets identical IDs run-to-run regardless of worker counts or
// the race detector, and concurrent producers (rpcrt handlers) still get
// unique, ordered IDs. Zero is "no span" and is the parent of roots.
type SpanID uint64

// Span is one timed node of the trace tree. Times are microseconds on the
// tracer's own axis: simulated microseconds for collector-produced spans,
// wall-clock microseconds since the tracer's epoch for rpcrt spans. The
// two never mix inside one tracer.
type Span struct {
	ID      SpanID  `json:"id"`
	Parent  SpanID  `json:"parent"`
	Name    string  `json:"name"`
	Cat     string  `json:"cat,omitempty"`
	Proc    int     `json:"proc"`  // Perfetto process row
	Track   int     `json:"track"` // Perfetto thread row within Proc
	StartUS int64   `json:"start_us"`
	DurUS   int64   `json:"dur_us"`
	Args    []Label `json:"args,omitempty"`
}

// End returns the span's end timestamp in microseconds.
func (s Span) End() int64 { return s.StartUS + s.DurUS }

// Tracer records hierarchical spans and exports them as Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing). All methods
// are safe for concurrent use and nil-receiver safe: a nil *Tracer is
// "tracing off" and every call is a cheap no-op, so call sites need no
// guards.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID SpanID
	spans  []Span // completed spans
	open   map[SpanID]Span
	procs  map[int]string
	tracks map[[2]int]string
}

// NewTracer returns an empty tracer whose wall-clock epoch is now.
func NewTracer() *Tracer {
	return &Tracer{
		epoch:  time.Now(),
		open:   make(map[SpanID]Span),
		procs:  make(map[int]string),
		tracks: make(map[[2]int]string),
	}
}

// NameProc assigns a display name to a Perfetto process row.
func (t *Tracer) NameProc(proc int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[proc] = name
	t.mu.Unlock()
}

// NameTrack assigns a display name to a thread row within a process row.
func (t *Tracer) NameTrack(proc, track int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tracks[[2]int{proc, track}] = name
	t.mu.Unlock()
}

func (t *Tracer) nowUS() int64 { return time.Since(t.epoch).Microseconds() }

// BeginAt opens a span at an explicit timestamp (simulated time).
func (t *Tracer) BeginAt(parent SpanID, name, cat string, proc, track int, startUS int64, args ...Label) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	t.open[id] = Span{
		ID: id, Parent: parent, Name: name, Cat: cat,
		Proc: proc, Track: track, StartUS: startUS, Args: args,
	}
	return id
}

// EndAt closes an open span at an explicit timestamp, clamping a
// backwards end to zero duration, and appends any extra args.
func (t *Tracer) EndAt(id SpanID, endUS int64, args ...Label) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	if endUS > sp.StartUS {
		sp.DurUS = endUS - sp.StartUS
	}
	sp.Args = append(sp.Args, args...)
	t.spans = append(t.spans, sp)
}

// Begin opens a wall-clock span (rpcrt's time axis).
func (t *Tracer) Begin(parent SpanID, name, cat string, proc, track int, args ...Label) SpanID {
	if t == nil {
		return 0
	}
	return t.BeginAt(parent, name, cat, proc, track, t.nowUS(), args...)
}

// End closes a wall-clock span.
func (t *Tracer) End(id SpanID, args ...Label) {
	if t == nil || id == 0 {
		return
	}
	t.EndAt(id, t.nowUS(), args...)
}

// Add records a complete span with explicit timestamps — the simulator's
// primitive, where phase durations are known when the round is priced.
func (t *Tracer) Add(parent SpanID, name, cat string, proc, track int, startUS, durUS int64, args ...Label) SpanID {
	if t == nil {
		return 0
	}
	if durUS < 0 {
		durUS = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, Span{
		ID: t.nextID, Parent: parent, Name: name, Cat: cat,
		Proc: proc, Track: track, StartUS: startUS, DurUS: durUS, Args: args,
	})
	return t.nextID
}

// Spans returns a copy of the completed spans in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// chromeEvent is one entry of the Chrome trace-event format: "X" complete
// events carry ts/dur in microseconds, "M" metadata events name the
// process and thread rows. encoding/json marshals the Args map in sorted
// key order, so the output is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports every completed span as Chrome trace-event
// JSON. Events are ordered metadata first, then spans by (start, id), so
// identical span sets produce identical bytes. Spans still open are not
// exported.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteChromeTrace on nil tracer")
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	procs := make(map[int]string, len(t.procs))
	for k, v := range t.procs {
		procs[k] = v
	}
	tracks := make(map[[2]int]string, len(t.tracks))
	for k, v := range t.tracks {
		tracks[k] = v
	}
	t.mu.Unlock()

	var events []chromeEvent
	procIDs := make([]int, 0, len(procs))
	for p := range procs {
		procIDs = append(procIDs, p)
	}
	sort.Ints(procIDs)
	for _, p := range procIDs {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: p,
			Args: map[string]any{"name": procs[p]},
		})
	}
	trackIDs := make([][2]int, 0, len(tracks))
	for k := range tracks {
		trackIDs = append(trackIDs, k)
	}
	sort.Slice(trackIDs, func(i, j int) bool {
		if trackIDs[i][0] != trackIDs[j][0] {
			return trackIDs[i][0] < trackIDs[j][0]
		}
		return trackIDs[i][1] < trackIDs[j][1]
	})
	for _, k := range trackIDs {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: k[0], Tid: k[1],
			Args: map[string]any{"name": tracks[k]},
		})
	}

	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartUS != spans[j].StartUS {
			return spans[i].StartUS < spans[j].StartUS
		}
		return spans[i].ID < spans[j].ID
	})
	for _, sp := range spans {
		args := map[string]any{
			"span_id":   uint64(sp.ID),
			"parent_id": uint64(sp.Parent),
		}
		for _, l := range sp.Args {
			args[l.Key] = l.Value
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			Ts: sp.StartUS, Dur: sp.DurUS,
			Pid: sp.Proc, Tid: sp.Track, Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
