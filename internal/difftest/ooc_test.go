package difftest

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// The out-of-core axis of the differential harness: every task run through
// the partitioned streaming backend (internal/ooc) must be bit-identical
// to the in-memory run — same per-round message counts, same task outputs,
// and the same priced verdict once the three measured-IO counters only the
// ooc backend populates are stripped. Runs price under Pregel+ (not an
// out-of-core system profile), so the cost model treats both runs
// identically and the ooc counters are the only permitted difference.

// oocDiffConfig forces a small window so the fixtures split into several
// partitions and messages genuinely round-trip through partition files.
func oocDiffConfig(t *testing.T) *tasks.OOCConfig {
	t.Helper()
	return &tasks.OOCConfig{Dir: t.TempDir(), MemoryBudgetBytes: 8 << 10}
}

// stripOOCResult zeroes the measured-IO counters after asserting the ooc
// run actually streamed (zero counters would mean the backend never
// engaged and the comparison is vacuous).
func stripOOCResult(t *testing.T, label string, res sim.JobResult) sim.JobResult {
	t.Helper()
	if res.OOCReadBytes <= 0 || res.OOCWriteBytes <= 0 || res.OOCWindowPeakBytes <= 0 {
		t.Fatalf("%s: ooc run reports no partition IO (read=%d write=%d peak=%d)",
			label, res.OOCReadBytes, res.OOCWriteBytes, res.OOCWindowPeakBytes)
	}
	res.OOCReadBytes = 0
	res.OOCWriteBytes = 0
	res.OOCWindowPeakBytes = 0
	return res
}

// TestMSSPOOCDifferential: weighted multi-source shortest paths, in-memory
// at every pool size on the acceptance grid vs the ooc backend.
func TestMSSPOOCDifferential(t *testing.T) {
	for _, seed := range seeds {
		g := graph.WithUniformWeights(
			graph.GenerateChungLu(nVertices, nEdges, 2.5, seed), 1, 4, seed+100)
		part := graph.HashPartition(nVertices, nMachines)
		sources := []graph.VertexID{0, graph.VertexID(seed * 7 % nVertices), 211}

		run := func(workers int, ooc *tasks.OOCConfig) (*tasks.MSSPJob, *roundRecorder, sim.JobResult) {
			job, err := tasks.NewMSSP(g, part, tasks.MSSPConfig{
				Sources: sources, Seed: seed, Workers: workers, OOC: ooc,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := &roundRecorder{}
			r := newRun(rec)
			r.BeginBatch()
			if _, err := job.RunBatch(r, len(sources), 0); err != nil {
				t.Fatal(err)
			}
			return job, rec, r.Result()
		}

		oocJob, oocRec, oocRes := run(0, oocDiffConfig(t))
		for _, workers := range workerGrid {
			label := fmt.Sprintf("mssp seed=%d workers=%d", seed, workers)
			baseJob, baseRec, baseRes := run(workers, nil)
			requireSameRounds(t, label, baseRec, oocRec, workers)
			if stripped := stripOOCResult(t, label, oocRes); baseRes != stripped {
				t.Fatalf("%s: priced result diverges:\nin-memory %+v\nooc       %+v", label, baseRes, stripped)
			}
			for i := range sources {
				for v := 0; v < nVertices; v++ {
					a := baseJob.Distance(i, graph.VertexID(v))
					b := oocJob.Distance(i, graph.VertexID(v))
					if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
						t.Fatalf("%s: src %d v %d: in-memory %v ooc %v", label, sources[i], v, a, b)
					}
				}
			}
		}
	}
}

// TestBKHSOOCDifferential: the same axis for k-bounded BFS.
func TestBKHSOOCDifferential(t *testing.T) {
	const k = 2
	for _, seed := range seeds {
		g := graph.GenerateChungLu(nVertices, nEdges, 2.4, seed)
		part := graph.HashPartition(nVertices, nMachines)
		sources := []graph.VertexID{1, graph.VertexID(seed * 13 % nVertices), 250}

		run := func(workers int, ooc *tasks.OOCConfig) (*tasks.BKHSJob, *roundRecorder, sim.JobResult) {
			job := tasks.NewBKHS(g, part, tasks.BKHSConfig{
				Sources: sources, K: k, Seed: seed, Workers: workers, OOC: ooc,
			})
			rec := &roundRecorder{}
			r := newRun(rec)
			r.BeginBatch()
			if _, err := job.RunBatch(r, len(sources), 0); err != nil {
				t.Fatal(err)
			}
			return job, rec, r.Result()
		}

		oocJob, oocRec, oocRes := run(0, oocDiffConfig(t))
		for _, workers := range workerGrid {
			label := fmt.Sprintf("bkhs seed=%d workers=%d", seed, workers)
			baseJob, baseRec, baseRes := run(workers, nil)
			requireSameRounds(t, label, baseRec, oocRec, workers)
			if stripped := stripOOCResult(t, label, oocRes); baseRes != stripped {
				t.Fatalf("%s: priced result diverges:\nin-memory %+v\nooc       %+v", label, baseRes, stripped)
			}
			for i := range sources {
				if a, b := baseJob.Reached(i), oocJob.Reached(i); a != b {
					t.Fatalf("%s: src %d reached %d ooc vs %d in-memory", label, sources[i], b, a)
				}
			}
		}
	}
}

// TestBPPROOCDifferential: the randomized task is the hard case — the ooc
// backend must preserve every machine's RNG lane and the message weights
// (walk counts) through the partition files so the streamed walks are the
// same walks.
func TestBPPROOCDifferential(t *testing.T) {
	const (
		walks = 500
		alpha = 0.2
	)
	for _, seed := range seeds {
		g := graph.GenerateChungLu(60, 240, 2.5, seed)
		n := g.NumVertices()
		part := graph.HashPartition(n, nMachines)

		run := func(workers int, ooc *tasks.OOCConfig) (*tasks.BPPRJob, *roundRecorder, sim.JobResult) {
			job := tasks.NewBPPR(g, part, tasks.BPPRConfig{
				Alpha: alpha, WalksPerNode: walks, Seed: seed, Workers: workers, OOC: ooc,
			})
			rec := &roundRecorder{}
			r := newRun(rec)
			r.BeginBatch()
			if _, err := job.RunBatch(r, walks, 0); err != nil {
				t.Fatal(err)
			}
			return job, rec, r.Result()
		}

		oocJob, oocRec, oocRes := run(0, oocDiffConfig(t))
		for _, workers := range workerGrid {
			label := fmt.Sprintf("bppr seed=%d workers=%d", seed, workers)
			baseJob, baseRec, baseRes := run(workers, nil)
			requireSameRounds(t, label, baseRec, oocRec, workers)
			if stripped := stripOOCResult(t, label, oocRes); baseRes != stripped {
				t.Fatalf("%s: priced result diverges:\nin-memory %+v\nooc       %+v", label, baseRes, stripped)
			}
			for src := 0; src < n; src++ {
				for v := 0; v < n; v++ {
					a := baseJob.Estimate(graph.VertexID(src), graph.VertexID(v))
					b := oocJob.Estimate(graph.VertexID(src), graph.VertexID(v))
					if a != b {
						t.Fatalf("%s: PPR(%d,%d): in-memory %v ooc %v", label, src, v, a, b)
					}
				}
			}
		}
	}
}

// TestOOCReportMatchesInMemory runs MSSP twice through the full obs
// pipeline and requires the machine-readable run reports to be
// byte-identical once the ooc-specific counters (result fields, per-row
// fields and registry metrics) are stripped — supersteps, per-machine
// rows, message metrics and phase accounting all survive the move to
// streamed partitions unchanged.
func TestOOCReportMatchesInMemory(t *testing.T) {
	seed := uint64(9)
	g := graph.WithUniformWeights(
		graph.GenerateChungLu(nVertices, nEdges, 2.5, seed), 1, 4, seed+100)
	part := graph.HashPartition(nVertices, nMachines)
	sources := []graph.VertexID{0, 35, 211}
	meta := obs.RunMeta{Task: "MSSP", System: "Pregel+", Cluster: "Galaxy-8",
		Machines: nMachines, Workload: len(sources), Batches: 1, Seed: seed}

	runReport := func(ooc *tasks.OOCConfig) *obs.RunReport {
		col := obs.NewCollector(obs.CollectorOptions{Registry: obs.NewRegistry()})
		r := sim.NewRun(sim.JobConfig{
			Cluster:  sim.Galaxy8.WithMachines(nMachines),
			System:   sim.PregelPlus,
			Observer: col,
		})
		job, err := tasks.NewMSSP(g, part, tasks.MSSPConfig{
			Sources: sources, Seed: seed, Workers: 2, OOC: ooc,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.BeginBatch()
		if _, err := job.RunBatch(r, len(sources), 0); err != nil {
			t.Fatal(err)
		}
		return col.Report(meta, r.Result())
	}

	label := "mssp report"
	want := oocStrippedJSON(t, label, runReport(nil), false)
	got := oocStrippedJSON(t, label, runReport(oocDiffConfig(t)), true)
	if !bytes.Equal(want, got) {
		t.Fatalf("reports diverge modulo ooc counters:\n--- in-memory ---\n%s\n--- ooc ---\n%s", want, got)
	}
}

// oocStrippedJSON serializes rep without everything only an ooc run
// populates — the result counters, the per-superstep and per-batch IO
// columns and the ooc_* registry metrics — so that the in-memory and the ooc
// report of one job can be compared byte for byte. streamed names the ooc
// side, which must show partition IO: none would mean the backend never
// engaged and the comparison is vacuous.
func oocStrippedJSON(t *testing.T, label string, rep *obs.RunReport, streamed bool) []byte {
	t.Helper()
	if streamed && rep.Result.OOCWriteBytes <= 0 {
		t.Fatalf("%s: ooc report shows no partition IO (write=%d)", label, rep.Result.OOCWriteBytes)
	}
	rep.Result.OOCReadBytes = 0
	rep.Result.OOCWriteBytes = 0
	rep.Result.OOCWindowPeakBytes = 0
	for i := range rep.Supersteps {
		rep.Supersteps[i].OOCReadBytes = 0
		rep.Supersteps[i].OOCWriteBytes = 0
		rep.Supersteps[i].OOCWindowPeakBytes = 0
	}
	for i := range rep.Batches {
		rep.Batches[i].OOCReadBytes = 0
		rep.Batches[i].OOCWriteBytes = 0
	}
	kept := rep.Metrics[:0]
	for _, m := range rep.Metrics {
		if !strings.HasPrefix(m.Name, "ooc_") {
			kept = append(kept, m)
		}
	}
	rep.Metrics = kept
	return reportJSON(t, label, rep)
}
