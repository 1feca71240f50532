package difftest

import (
	"bytes"
	"fmt"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// combineReport runs one task batch under a full collector and returns the
// run report — it embeds every per-round statistic, the per-machine
// aggregates and the metrics snapshot, so byte equality is the strongest
// available statement that two runs were indistinguishable.
func combineReport(t *testing.T, name string, runBatch func(run *sim.Run) (int, error)) *obs.RunReport {
	t.Helper()
	col := obs.NewCollector(obs.CollectorOptions{Registry: obs.NewRegistry()})
	run := sim.NewRun(sim.JobConfig{
		Cluster:  sim.Galaxy8.WithMachines(nMachines),
		System:   sim.PregelPlus,
		Observer: col,
	})
	run.BeginBatch()
	workload, err := runBatch(run)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return col.Report(obs.RunMeta{
		Task: name, System: "PregelPlus", Cluster: "Galaxy8",
		Machines: nMachines, Workload: workload, Batches: 1, Seed: 1,
	}, run.Result())
}

// reportJSON serializes rep the way vcrun -report writes it.
func reportJSON(t *testing.T, label string, rep *obs.RunReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: serialize report: %v", label, err)
	}
	return buf.Bytes()
}

// requireSameReport fails with the first differing line of the two reports.
func requireSameReport(t *testing.T, label string, mem, ooc []byte) {
	t.Helper()
	if bytes.Equal(mem, ooc) {
		return
	}
	memLines := bytes.Split(mem, []byte("\n"))
	oocLines := bytes.Split(ooc, []byte("\n"))
	for i := range memLines {
		if i >= len(oocLines) || !bytes.Equal(memLines[i], oocLines[i]) {
			t.Fatalf("%s: reports diverge at line %d:\n  in-memory:   %s\n  out-of-core: %s",
				label, i+1, memLines[i], oocLines[i])
		}
	}
	t.Fatalf("%s: out-of-core report has %d extra lines", label, len(oocLines)-len(memLines))
}

// TestCombineBackendDifferential proves a combined job is the same job on
// both backends: the in-memory engine folds each machine's freshly sorted
// inbox region, the out-of-core backend folds a partition's inbox when it is
// read back, and for each task and each worker-pool size the two must
// produce byte-identical run reports modulo the ooc IO counters — same
// rounds, same logical and physical message counts, same per-machine
// aggregates, same cost-model output.
func TestCombineBackendDifferential(t *testing.T) {
	for _, seed := range seeds {
		g := graph.GenerateChungLu(nVertices, nEdges, 2.5, seed)
		sources := []graph.VertexID{5, graph.VertexID(seed * 13 % nVertices), 222}
		combineBackendCase(t, "chung-lu", g, sources, seed)
	}
	// High duplication: on a star every message a leaf sends goes to the
	// hub, so once the hub (vertex 0) has reached the leaves, the hub's
	// segment holds one message per leaf for each source and all but one of
	// them merge — the branch the random graphs barely touch.
	star := graph.GenerateStar(nVertices)
	combineBackendCase(t, "star", star, []graph.VertexID{0, 5, 222}, seeds[0])
}

// combineBackendCase runs the three tasks on g with the combiner on, in
// memory at every worker-pool size and out of core, and requires
// byte-identical reports. The fold must also be seen merging, or the
// comparison proves nothing: the combined report has to differ from an
// uncombined one (fewer messages received; for BPPR, merged walk bundles
// draw from the RNG differently).
func combineBackendCase(t *testing.T, label string, g *graph.Graph, sources []graph.VertexID, seed uint64) {
	t.Helper()
	part := graph.HashPartition(g.NumVertices(), nMachines)
	mssp := func(w int, ooc *tasks.OOCConfig, combine bool) *obs.RunReport {
		return combineReport(t, "MSSP", func(run *sim.Run) (int, error) {
			job, err := tasks.NewMSSP(g, part, tasks.MSSPConfig{
				Sources: sources, Seed: seed, Workers: w, Combine: combine, OOC: ooc,
			})
			if err != nil {
				return 0, err
			}
			_, err = job.RunBatch(run, len(sources), 0)
			return len(sources), err
		})
	}
	bkhs := func(w int, ooc *tasks.OOCConfig, combine bool) *obs.RunReport {
		return combineReport(t, "BKHS", func(run *sim.Run) (int, error) {
			job := tasks.NewBKHS(g, part, tasks.BKHSConfig{
				Sources: sources, K: 3, Seed: seed, Workers: w, Combine: combine, OOC: ooc,
			})
			_, err := job.RunBatch(run, len(sources), 0)
			return len(sources), err
		})
	}
	bppr := func(w int, ooc *tasks.OOCConfig, combine bool) *obs.RunReport {
		return combineReport(t, "BPPR", func(run *sim.Run) (int, error) {
			job := tasks.NewBPPR(g, part, tasks.BPPRConfig{
				WalksPerNode: 4, Seed: seed, Workers: w, Combine: combine, OOC: ooc,
			})
			_, err := job.RunBatch(run, 4, 0)
			return 4, err
		})
	}
	for _, tc := range []struct {
		name string
		run  func(w int, ooc *tasks.OOCConfig, combine bool) *obs.RunReport
	}{{"mssp", mssp}, {"bkhs", bkhs}, {"bppr", bppr}} {
		name := label + " " + tc.name
		// The ooc backend forces one worker, so one run serves the grid.
		oocJSON := oocStrippedJSON(t, name, tc.run(0, oocDiffConfig(t), true), true)
		for _, w := range workerGrid {
			requireSameReport(t, fmt.Sprintf("%s workers=%d", name, w),
				oocStrippedJSON(t, name, tc.run(w, nil, true), false), oocJSON)
		}
		if bytes.Equal(oocStrippedJSON(t, name, tc.run(1, nil, false), false), oocJSON) {
			t.Fatalf("%s: the combined report equals the uncombined one; the fold merged nothing", name)
		}
	}
}

// TestCombineResultsUnchanged checks that enabling the combiner does not
// change task results for the deterministic minimum-fold tasks: MSSP
// distances and BKHS reach counts must match an uncombined run exactly.
// (BPPR is excluded: merging counted walks legitimately changes how many
// messages each Compute call sees and therefore its RNG draws — combined
// runs are a different, equally valid, Monte-Carlo sample.)
func TestCombineResultsUnchanged(t *testing.T) {
	seed := seeds[0]
	g := graph.GenerateChungLu(nVertices, nEdges, 2.5, seed)
	part := graph.HashPartition(nVertices, nMachines)
	sources := []graph.VertexID{5, 77, 222}

	runMSSP := func(combine bool) *tasks.MSSPJob {
		job, err := tasks.NewMSSP(g, part, tasks.MSSPConfig{
			Sources: sources, Seed: seed, Combine: combine,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := &roundRecorder{}
		run := newRun(rec)
		run.BeginBatch()
		if _, err := job.RunBatch(run, len(sources), 0); err != nil {
			t.Fatal(err)
		}
		return job
	}
	plain, combined := runMSSP(false), runMSSP(true)
	for i := range sources {
		for v := 0; v < nVertices; v++ {
			a, b := plain.Distance(i, graph.VertexID(v)), combined.Distance(i, graph.VertexID(v))
			if a != b {
				t.Fatalf("mssp: src %d v %d: %v uncombined vs %v combined", sources[i], v, a, b)
			}
		}
	}

	runBKHS := func(combine bool) *tasks.BKHSJob {
		job := tasks.NewBKHS(g, part, tasks.BKHSConfig{
			Sources: sources, K: 3, Seed: seed, Combine: combine,
		})
		rec := &roundRecorder{}
		run := newRun(rec)
		run.BeginBatch()
		if _, err := job.RunBatch(run, len(sources), 0); err != nil {
			t.Fatal(err)
		}
		return job
	}
	pb, cb := runBKHS(false), runBKHS(true)
	for i := range sources {
		if pb.Reached(i) != cb.Reached(i) {
			t.Fatalf("bkhs: src %d: reached %d uncombined vs %d combined",
				sources[i], pb.Reached(i), cb.Reached(i))
		}
	}
}
