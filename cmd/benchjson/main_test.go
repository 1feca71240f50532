package main

import (
	"bytes"
	"strings"
	"testing"
)

func result(name string, ns float64, metrics map[string]float64) Result {
	return Result{Name: name, Iterations: 1, NsPerOp: ns, Metrics: metrics}
}

func baseline(results ...Result) Output {
	return Output{Package: "./p", Bench: ".", Results: results}
}

func TestCompareNoRegression(t *testing.T) {
	base := baseline(result("BenchmarkA-8", 100, map[string]float64{"B/op": 1000, "allocs/op": 10}))
	fresh := []Result{result("BenchmarkA-8", 110, map[string]float64{"B/op": 1100, "allocs/op": 11})}
	if regs := compareResults(base, fresh, 0.25); len(regs) != 0 {
		t.Fatalf("within-limit run flagged: %v", regs)
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	base := baseline(result("BenchmarkA-8", 100, nil))
	fresh := []Result{result("BenchmarkA-8", 130, nil)}
	regs := compareResults(base, fresh, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "ns/op") {
		t.Fatalf("want one ns/op regression, got %v", regs)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := baseline(result("BenchmarkA-8", 100, map[string]float64{"allocs/op": 100}))
	fresh := []Result{result("BenchmarkA-8", 100, map[string]float64{"allocs/op": 130})}
	regs := compareResults(base, fresh, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
}

func TestCompareZeroAllocBaselineIsExact(t *testing.T) {
	base := baseline(result("BenchmarkSteady-8", 100, map[string]float64{"B/op": 0, "allocs/op": 0}))

	// A single allocation against a 0-alloc baseline fails, no matter how
	// generous the relative limit is.
	fresh := []Result{result("BenchmarkSteady-8", 100, map[string]float64{"B/op": 16, "allocs/op": 1})}
	regs := compareResults(base, fresh, 10.0)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocation-free") {
		t.Fatalf("want exact-match alloc regression, got %v", regs)
	}

	// Staying at zero passes.
	fresh = []Result{result("BenchmarkSteady-8", 100, map[string]float64{"B/op": 0, "allocs/op": 0})}
	if regs := compareResults(base, fresh, 0.25); len(regs) != 0 {
		t.Fatalf("0-alloc run flagged against 0-alloc baseline: %v", regs)
	}
}

func TestCompareBytesSlackAbsorbsPoolNoise(t *testing.T) {
	// Pool-backed benchmarks report a few bytes of scheduler noise; the
	// absolute slack keeps that from tripping a relative gate on a
	// near-zero baseline. allocs/op gets no such slack.
	base := baseline(result("BenchmarkA-8", 100, map[string]float64{"B/op": 2}))
	fresh := []Result{result("BenchmarkA-8", 100, map[string]float64{"B/op": 60})}
	if regs := compareResults(base, fresh, 0.25); len(regs) != 0 {
		t.Fatalf("B/op within absolute slack flagged: %v", regs)
	}
	fresh = []Result{result("BenchmarkA-8", 100, map[string]float64{"B/op": 70})}
	if regs := compareResults(base, fresh, 0.25); len(regs) != 1 {
		t.Fatalf("B/op past absolute slack not flagged: %v", regs)
	}
}

func TestCompareMissingBenchmarkIsRegression(t *testing.T) {
	base := baseline(result("BenchmarkGone-8", 100, nil))
	regs := compareResults(base, nil, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("want missing-benchmark regression, got %v", regs)
	}
}

func TestCompareNewBenchmarkIgnored(t *testing.T) {
	base := baseline(result("BenchmarkA-8", 100, nil))
	fresh := []Result{
		result("BenchmarkA-8", 100, nil),
		result("BenchmarkNew-8", 999999, map[string]float64{"allocs/op": 5000}),
	}
	if regs := compareResults(base, fresh, 0.25); len(regs) != 0 {
		t.Fatalf("benchmark absent from baseline flagged: %v", regs)
	}
}

// v2LoadNsPerOp is the retired v2 reflection decode's BenchmarkLoadBinaryV2
// result, as BENCH_graph.json recorded it before the v2 reader was deleted.
const v2LoadNsPerOp = 24684706

// TestGraphBaselineShowsBulkWin pins the acceptance criterion of the v3
// zero-copy load path against the committed artifact: in BENCH_graph.json,
// the bulk loader must be at least 2x faster than the v2 reflection decode
// of the same graph. The file is committed, so this check is deterministic;
// the live gate (make bench-graph) separately catches fresh regressions.
func TestGraphBaselineShowsBulkWin(t *testing.T) {
	base, err := readBaseline("../../BENCH_graph.json")
	if err != nil {
		t.Fatalf("committed graph-load baseline missing: %v", err)
	}
	ns := map[string]float64{}
	for _, r := range base.Results {
		name, _, _ := strings.Cut(r.Name, "-") // strip the -GOMAXPROCS suffix
		ns[name] = r.NsPerOp
	}
	v2, v3 := float64(v2LoadNsPerOp), ns["BenchmarkLoadBinaryV3"]
	if v3 == 0 {
		t.Fatalf("baseline lacks the v3 load benchmark: %v", ns)
	}
	if v3*2 > v2 {
		t.Fatalf("committed baseline shows only a %.2fx bulk-load win (v2 %.0f ns/op, v3 %.0f ns/op); the v3 contract requires >= 2x",
			v2/v3, v2, v3)
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := bytes.NewBufferString(strings.Join([]string{
		"goos: linux",
		"BenchmarkEngineDeliverySteadyState \t      10\t   1041995 ns/op\t       151.5 Mmsgs/s\t       0 B/op\t       0 allocs/op",
		"BenchmarkEngineSkewedDegree/w1     \t      10\t  17818135 ns/op\t        65.00 Mmsgs/s\t 6005152 B/op\t    1084 allocs/op",
		"PASS",
	}, "\n"))
	res := parse(out, 1)
	if len(res) != 2 {
		t.Fatalf("parsed %d results, want 2", len(res))
	}
	r := res[0]
	if r.Name != "BenchmarkEngineDeliverySteadyState" || r.NsPerOp != 1041995 {
		t.Fatalf("bad first result: %+v", r)
	}
	if v, ok := r.Metrics["allocs/op"]; !ok || v != 0 {
		t.Fatalf("allocs/op not parsed as explicit 0: %+v", r.Metrics)
	}
	if v := res[1].Metrics["B/op"]; v != 6005152 {
		t.Fatalf("B/op = %v want 6005152", v)
	}
}

// TestParseStripsGOMAXPROCSSuffix: on a multi-core runner go test names
// every result BenchmarkX-N; parse must hand back the names the committed
// baselines use, or the gate reports each of them as missing.
func TestParseStripsGOMAXPROCSSuffix(t *testing.T) {
	lines := func(names ...string) *bytes.Buffer {
		var b bytes.Buffer
		for _, n := range names {
			b.WriteString(n + " \t 10\t 100 ns/op\n")
		}
		return &b
	}
	names := func(rs []Result) string {
		var out []string
		for _, r := range rs {
			out = append(out, r.Name)
		}
		return strings.Join(out, " ")
	}
	got := names(parse(lines("BenchmarkEngineKeyedCombine-4", "BenchmarkEngineSkewedDegree/w1-4", "BenchmarkTop-8-4", "BenchmarkTop-8"), 4))
	if want := "BenchmarkEngineKeyedCombine BenchmarkEngineSkewedDegree/w1 BenchmarkTop-8 BenchmarkTop-8"; got != want {
		t.Fatalf("at 4 procs parsed %q, want %q", got, want)
	}
	// One proc: go test adds no suffix, so a trailing -N belongs to the name.
	got = names(parse(lines("BenchmarkTop-8", "BenchmarkTop-1"), 1))
	if want := "BenchmarkTop-8 BenchmarkTop-1"; got != want {
		t.Fatalf("at 1 proc parsed %q, want %q", got, want)
	}
	base := Output{Results: []Result{{Name: "BenchmarkEngineKeyedCombine", NsPerOp: 100}}}
	if regs := compareResults(base, parse(lines("BenchmarkEngineKeyedCombine-2"), 2), 0.25); len(regs) != 0 {
		t.Fatalf("suffixed fresh result did not match its baseline: %v", regs)
	}
}

// TestFoldRepeatedRuns: with -count N every benchmark prints N lines; fold
// keeps one per name, in first-run order, with the minimum ns/op and the
// maximum beside it, the median B/op and custom metrics, and the maximum
// allocs/op — one allocating repeat still fails a 0-allocs baseline.
func TestFoldRepeatedRuns(t *testing.T) {
	out := bytes.NewBufferString(strings.Join([]string{
		"BenchmarkA \t 20\t 300 ns/op\t 10.0 Mmsgs/s\t 100 B/op\t 0 allocs/op",
		"BenchmarkB \t 20\t 50 ns/op",
		"BenchmarkA \t 20\t 100 ns/op\t 30.0 Mmsgs/s\t 900 B/op\t 0 allocs/op",
		"BenchmarkA \t 20\t 200 ns/op\t 15.0 Mmsgs/s\t 120 B/op\t 1 allocs/op",
		"BenchmarkC \t 20\t 70 ns/op\t 8 B/op",
		"BenchmarkC \t 20\t 60 ns/op\t 4 B/op",
	}, "\n"))
	res := fold(parse(out, 1))
	if len(res) != 3 || res[0].Name != "BenchmarkA" || res[1].Name != "BenchmarkB" || res[2].Name != "BenchmarkC" {
		t.Fatalf("folded to %+v, want A, B, C in first-run order", res)
	}
	a := res[0]
	if a.NsPerOp != 100 || a.NsPerOpMax != 300 || a.Iterations != 20 {
		t.Fatalf("A folded to ns/op %v..%v at %d iterations, want 100..300 at 20", a.NsPerOp, a.NsPerOpMax, a.Iterations)
	}
	if a.Metrics["B/op"] != 120 || a.Metrics["Mmsgs/s"] != 15 || a.Metrics["allocs/op"] != 1 {
		t.Fatalf("A folded to metrics %v, want median B/op 120 and Mmsgs/s 15, max allocs/op 1", a.Metrics)
	}
	if b := res[1]; b.NsPerOpMax != 0 || b.NsPerOp != 50 {
		t.Fatalf("a single run was changed: %+v", b)
	}
	if c := res[2]; c.NsPerOp != 60 || c.NsPerOpMax != 70 || c.Metrics["B/op"] != 6 {
		t.Fatalf("C folded to %+v, want ns/op 60..70 and B/op the mean of its two middles, 6", c)
	}
	base := baseline(result("BenchmarkA", 100, map[string]float64{"B/op": 120, "allocs/op": 0}))
	if regs := compareResults(base, res, 0.25); len(regs) != 1 || !strings.Contains(regs[0], "allocation-free") {
		t.Fatalf("one allocating repeat against a 0-allocs baseline: %v", regs)
	}
}
