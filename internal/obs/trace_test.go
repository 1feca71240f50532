package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// buildTrace marshals a hand-built trace document for validator tests.
func buildTrace(t *testing.T, events []chromeEvent) []byte {
	t.Helper()
	data, err := json.Marshal(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func xEvent(name string, ts, dur int64, id, parent uint64) chromeEvent {
	return chromeEvent{
		Name: name, Ph: "X", Ts: ts, Dur: dur,
		Args: map[string]any{"span_id": id, "parent_id": parent},
	}
}

func TestTracerIDsMonotonicAndDeterministic(t *testing.T) {
	for trial := 0; trial < 2; trial++ {
		tr := NewTracer()
		var ids []SpanID
		root := tr.BeginAt(0, "run", "sim", 0, 0, 0)
		ids = append(ids, root)
		for i := 0; i < 5; i++ {
			ids = append(ids, tr.Add(root, fmt.Sprintf("round %d", i), "sim", 0, 0, int64(i*10), 10))
		}
		tr.EndAt(root, 50)
		for i, id := range ids {
			if id != SpanID(i+1) {
				t.Fatalf("trial %d: span %d got id %d, want %d", trial, i, id, i+1)
			}
		}
	}
}

func TestTracerChromeTraceRoundTripsThroughValidator(t *testing.T) {
	tr := NewTracer()
	tr.NameProc(0, "simulated cluster")
	tr.NameTrack(0, 0, "supersteps")
	run := tr.BeginAt(0, "run", "sim", 0, 0, 0)
	r1 := tr.Add(run, "superstep", "sim", 0, 0, 0, 100, L("round", "1"))
	tr.Add(r1, "compute", "sim", 0, 1, 0, 60)
	tr.Add(r1, "barrier", "sim", 0, 0, 90, 10)
	tr.EndAt(run, 100)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("validator rejected tracer output: %v", err)
	}
	if n != 4 {
		t.Fatalf("validated %d spans, want 4", n)
	}
	if !strings.Contains(buf.String(), `"process_name"`) || !strings.Contains(buf.String(), `"thread_name"`) {
		t.Fatalf("metadata events missing:\n%s", buf.String())
	}

	// Identical span sets must serialize to identical bytes.
	var buf2 bytes.Buffer
	if err := tr.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteChromeTrace is not deterministic for the same tracer state")
	}
}

func TestTracerOpenSpansNotExported(t *testing.T) {
	tr := NewTracer()
	tr.BeginAt(0, "still open", "sim", 0, 0, 0)
	tr.Add(0, "done", "sim", 0, 0, 0, 5)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "still open") {
		t.Fatal("open span leaked into export")
	}
	if n, err := ValidateChromeTrace(buf.Bytes()); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestTracerEndClampsBackwardsTime(t *testing.T) {
	tr := NewTracer()
	id := tr.BeginAt(0, "s", "sim", 0, 0, 100)
	tr.EndAt(id, 50) // end before start: clamp to zero duration
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].DurUS != 0 {
		t.Fatalf("spans=%+v, want one span with dur 0", spans)
	}
}

func TestValidateChromeTraceRejections(t *testing.T) {
	cases := []struct {
		name   string
		events []chromeEvent
		errSub string
	}{
		{
			"unsorted timestamps",
			[]chromeEvent{xEvent("a", 10, 5, 1, 0), xEvent("b", 5, 5, 2, 0)},
			"not sorted",
		},
		{
			"negative duration",
			[]chromeEvent{xEvent("a", 0, -1, 1, 0)},
			"negative dur",
		},
		{
			"unknown parent",
			[]chromeEvent{xEvent("a", 0, 10, 1, 99)},
			"parent",
		},
		{
			"child escapes parent interval",
			[]chromeEvent{xEvent("p", 0, 10, 1, 0), xEvent("c", 5, 20, 2, 1)},
			"escapes parent",
		},
		{
			"duplicate span id",
			[]chromeEvent{xEvent("a", 0, 5, 1, 0), xEvent("b", 1, 5, 1, 0)},
			"duplicate",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateChromeTrace(buildTrace(t, tc.events))
			if err == nil {
				t.Fatalf("validator accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("error %q does not mention %q", err, tc.errSub)
			}
		})
	}
	// Unknown top-level fields are a format drift signal.
	if _, err := ValidateChromeTrace([]byte(`{"traceEvents":[],"displayTimeUnit":"ms","bogus":1}`)); err == nil {
		t.Fatal("validator accepted unknown top-level field")
	}
}

// TestNilReceiversAreNoOps: call sites rely on nil meaning "off" with no
// guards; every exported method must tolerate it.
func TestNilReceiversAreNoOps(t *testing.T) {
	var tr *Tracer
	tr.NameProc(0, "x")
	tr.NameTrack(0, 0, "x")
	id := tr.Begin(0, "a", "b", 0, 0)
	if id != 0 {
		t.Fatalf("nil tracer Begin returned %d", id)
	}
	tr.End(id)
	tr.BeginAt(0, "a", "b", 0, 0, 0)
	tr.EndAt(0, 0)
	tr.Add(0, "a", "b", 0, 0, 0, 0)
	if tr.Spans() != nil {
		t.Fatal("nil tracer Spans() != nil")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil tracer WriteChromeTrace should error")
	}
}
