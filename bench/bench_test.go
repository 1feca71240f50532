package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/obs"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(pinnedProcs) // the run shape main pins
	os.Exit(m.Run())
}

func TestStatistics(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, p := range []float64{0, 50, 95, 100} {
		if got := percentile(xs, p); got != p {
			t.Errorf("percentile(0..100, %v) = %v", p, got)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {360, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestSpanSelfTime holds the layer-table arithmetic: self time is a span
// minus its children, a span belongs to the nearest scope span above it, and
// a tree recorded under a foreign root is adopted by the scope it started in
// without entering anyone's self time.
func TestSpanSelfTime(t *testing.T) {
	tr := obs.NewTracer()
	run := tr.Add(0, "run", "bench", 0, 0, 0, 1000)
	pass := tr.Add(run, "pass", "bench", 0, 0, 100, 800)
	tr.Add(pass, "load", "graph", 0, 0, 100, 50)
	batch := tr.Add(pass, "batch", "tasks", 0, 0, 150, 700)
	tr.Add(batch, "superstep", "engine", 0, 0, 150, 600)
	foreign := tr.Add(0, "job", "rpcrt", 0, 0, 200, 300)
	tr.Add(foreign, "compute", "worker", 1, 0, 200, 300)
	tr.Add(foreign, "compute", "worker", 2, 0, 200, 300)

	s := analyze(tr.Spans())
	if got := s.total("pass", "superstep"); got != 600e-6 {
		t.Errorf("superstep total = %v", got)
	}
	if got, want := s.unattributed(), 50.0/800; got != want {
		t.Errorf("unattributed = %v, want %v", got, want)
	}
	if got := s.total("pass", "compute"); got != 600e-6 {
		t.Errorf("adopted compute total = %v, want both workers' 300 µs", got)
	}
	if got := s.count("pass"); got != 7 {
		t.Errorf("spans in pass scope = %d, want 7", got)
	}
	var table bytes.Buffer
	s.writeLayerTable(&table, 1)
	if bytes.Contains(table.Bytes(), []byte("compute")) {
		t.Errorf("adopted spans must stay out of the self-time table:\n%s", table.String())
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables this program prints
// from and to the limits of the contract it is written to.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w != workloadDefs[i] {
			t.Errorf("workload %d: declared %+v, defined %+v", i, w, workloadDefs[i])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, bound float64, def metricDef) {
		if name != def.Name || unit != def.Unit || better != def.Better || bound != def.Bound {
			t.Errorf("%s %d: declared %s/%s/%s/%v, defined %+v", kind, i, name, unit, better, bound, def)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s %s (%s): bad or repeated name or unit", kind, name, unit)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, defined %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, m.Bound, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, 0, perLayer[i])
	}
	if len(b.PerLayer) > 128 || b.RunSeconds < 1 || b.RunSeconds > 60 || len(data) > 64<<10 {
		t.Errorf("%d per-layer metrics, run_seconds %d, %d bytes", len(b.PerLayer), b.RunSeconds, len(data))
	}
}

// TestWorkloadSmoke runs every workload's traced variant over the shortest
// window (one bare and one traced pass per driver) and the cheapest one's
// untraced variant, and holds the printed metric names to the declared sets.
func TestWorkloadSmoke(t *testing.T) {
	run := func(name string, traced bool, defs []metricDef) {
		o := runOpts{workload: name, seed: 3, seconds: 0, tmp: t.TempDir(), text: io.Discard}
		fn := runUntraced
		if traced {
			fn = runTraced
		}
		res, err := fn(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics printed, %d declared", name, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if mv, ok := res.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in %q, want %q", name, d.Name, mv.Unit, d.Unit)
			}
		}
		if traced {
			if got := res.Metrics["trace.unattributed_ratio"].Value; got > 0.02 {
				t.Errorf("%s: %.4f of pass wall-clock unattributed", name, got)
			}
			if _, err := os.Stat(filepath.Join(o.tmp, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	for _, w := range workloadDefs {
		run(w.Name, true, perLayer)
	}
	run("serve-closed", false, endToEnd)
}

// TestPipelineParity holds the benchmark's in-process one-shot pipeline to
// the bytes `vcrun -graph-file … -report` writes, one small configuration per
// task, so that the benchmark cannot drift from what users run.
func TestPipelineParity(t *testing.T) {
	dir := t.TempDir()
	vcrun := filepath.Join(dir, "vcrun")
	build := exec.Command("go", "build", "-o", vcrun, "./cmd/vcrun")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vcrun: %v\n%s", err, out)
	}
	d, err := graph.Dataset("Web-St")
	if err != nil {
		t.Fatal(err)
	}
	dump, _, err := writeDump(d, dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		task     string
		workload int
	}{{"MSSP", 8}, {"BKHS", 32}, {"BPPR", 4}} {
		report := filepath.Join(dir, c.task+".json")
		cmd := exec.Command(vcrun, "-task", c.task, "-dataset", d.Name, "-graph-file", dump,
			"-workload", strconv.Itoa(c.workload), "-batches", "2", "-k", "2", "-seed", "5",
			"-workers", strconv.Itoa(pinnedProcs), "-report", report)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("vcrun %s: %v\n%s", c.task, err, out)
		}
		want, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		g, part, err := loadDump(dump, d, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		js := jobSpec{Task: c.task, Dataset: d, Workload: c.workload, Batches: 2, K: 2, Seed: 5, Workers: pinnedProcs}
		if c.task != "BPPR" {
			js.Sources = firstSources(g.NumVertices(), c.workload)
		}
		out, err := runJob(g, part, js, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.report, want) {
			t.Errorf("%s: pipeline report (%d bytes) differs from vcrun's (%d bytes)", c.task, len(out.report), len(want))
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(wall, msgs float64) *resultFile {
		return &resultFile{
			Header: header{Seed: 1, Seconds: 15, GOMAXPROCS: pinnedProcs},
			Runs: []*runResult{{
				Workload: "mem-fewrounds", Correct: true, Attempted: 20,
				Exact: map[string]float64{"engine.supersteps": 26},
				Metrics: withUnits(endToEnd, map[string]float64{
					"setup_s": 1, "pass_wall_s_p50": wall, "mmsgs_per_s": msgs, "alloc_mb_per_pass": 100,
				}),
			}},
		}
	}
	base := mk(1, 30)
	bound := endToEnd[1].Bound // pass_wall_s_p50 and mmsgs_per_s share it
	for _, c := range []struct {
		name string
		b    *resultFile
		want int
	}{
		{"same", mk(1, 30), 0},
		{"within bound", mk(1+bound-0.01, 30*(1-bound+0.01)), 0},
		{"better", mk(0.5, 60), 0},
		{"slower pass", mk(1+bound+0.01, 30), 1},
		{"lower throughput", mk(1, 30*(1-bound-0.01)), 1},
	} {
		if got := compareResults(base, c.b); got != c.want {
			t.Errorf("%s: compare = %d, want %d", c.name, got, c.want)
		}
	}
	drift := mk(1, 30)
	drift.Runs[0].Exact["engine.supersteps"] = 27
	if got := compareResults(base, drift); got != 1 {
		t.Errorf("exact count drift: compare = %d, want 1", got)
	}
	failed := mk(1, 30)
	failed.Runs[0].Failed, failed.Runs[0].Correct = 1, false
	if got := compareResults(base, failed); got != 1 {
		t.Errorf("failed pass: compare = %d, want 1", got)
	}
	if got := compareResults(base, &resultFile{Header: base.Header}); got != 1 {
		t.Errorf("missing run: compare = %d, want 1", got)
	}
}
