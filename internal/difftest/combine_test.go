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
// available statement that two runs were indistinguishable — and how many
// messages the engine merged at send time, which the report never carries.
func combineReport(t *testing.T, name string, runBatch func(run *sim.Run) (int, error)) (*obs.RunReport, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	col := obs.NewCollector(obs.CollectorOptions{Registry: reg})
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
	rep := col.Report(obs.RunMeta{
		Task: name, System: "PregelPlus", Cluster: "Galaxy8",
		Machines: nMachines, Workload: workload, Batches: 1, Seed: 1,
	}, run.Result())
	return rep, reg.Counter("sim_combined_send_total").Value()
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
func requireSameReport(t *testing.T, label string, atSend, atDelivery []byte) {
	t.Helper()
	if bytes.Equal(atSend, atDelivery) {
		return
	}
	sendLines := bytes.Split(atSend, []byte("\n"))
	delivLines := bytes.Split(atDelivery, []byte("\n"))
	for i := range sendLines {
		if i >= len(delivLines) || !bytes.Equal(sendLines[i], delivLines[i]) {
			t.Fatalf("%s: reports diverge at line %d:\n  send-time:     %s\n  delivery-time: %s",
				label, i+1, sendLines[i], delivLines[i])
		}
	}
	t.Fatalf("%s: delivery-time report has %d extra lines", label, len(delivLines)-len(sendLines))
}

// TestCombineTimingDifferential proves the engine's send-time combining is
// observationally equivalent to folding each inbox only at delivery, on the
// production path that does the latter: the out-of-core backend, which
// records raw messages and combines when a partition's inbox is read back.
// For each task and each worker-pool size the in-memory run and the ooc run
// must produce byte-identical run reports modulo the ooc IO counters — same
// rounds, same logical and physical message counts, same per-machine
// aggregates, same cost-model output.
func TestCombineTimingDifferential(t *testing.T) {
	for _, seed := range seeds {
		g := graph.GenerateChungLu(nVertices, nEdges, 2.5, seed)
		sources := []graph.VertexID{5, graph.VertexID(seed * 13 % nVertices), 222}
		combineTimingCase(t, "chung-lu", g, sources, seed)
	}
	// High duplication: on a star every message a leaf sends goes to the
	// hub, so once the hub (vertex 0) has reached the leaves, all the leaves
	// of one machine send the same (hub, source) pair in the same round and
	// all but one of them merge — the branch the random graphs, where a
	// machine rarely sends one pair twice, barely touch. Here the send-time
	// side must be seen merging, or the comparison proves nothing.
	star := graph.GenerateStar(nVertices)
	for task, merged := range combineTimingCase(t, "star", star, []graph.VertexID{0, 5, 222}, seeds[0]) {
		if merged <= 0 {
			t.Fatalf("star %s: the in-memory runs merged nothing at send time", task)
		}
	}
}

// combineTimingCase runs the three tasks on g with the combiner on, in
// memory at every worker-pool size (send-time merging) and out of core
// (delivery-time fold only), and requires byte-identical reports. It returns
// each task's send-time merge count over the in-memory runs.
func combineTimingCase(t *testing.T, label string, g *graph.Graph, sources []graph.VertexID, seed uint64) map[string]int64 {
	t.Helper()
	part := graph.HashPartition(g.NumVertices(), nMachines)
	mssp := func(w int, ooc *tasks.OOCConfig) (*obs.RunReport, int64) {
		return combineReport(t, "MSSP", func(run *sim.Run) (int, error) {
			job, err := tasks.NewMSSP(g, part, tasks.MSSPConfig{
				Sources: sources, Seed: seed, Workers: w, Combine: true, OOC: ooc,
			})
			if err != nil {
				return 0, err
			}
			_, err = job.RunBatch(run, len(sources), 0)
			return len(sources), err
		})
	}
	bkhs := func(w int, ooc *tasks.OOCConfig) (*obs.RunReport, int64) {
		return combineReport(t, "BKHS", func(run *sim.Run) (int, error) {
			job := tasks.NewBKHS(g, part, tasks.BKHSConfig{
				Sources: sources, K: 3, Seed: seed, Workers: w, Combine: true, OOC: ooc,
			})
			_, err := job.RunBatch(run, len(sources), 0)
			return len(sources), err
		})
	}
	bppr := func(w int, ooc *tasks.OOCConfig) (*obs.RunReport, int64) {
		return combineReport(t, "BPPR", func(run *sim.Run) (int, error) {
			job := tasks.NewBPPR(g, part, tasks.BPPRConfig{
				WalksPerNode: 4, Seed: seed, Workers: w, Combine: true, OOC: ooc,
			})
			_, err := job.RunBatch(run, 4, 0)
			return 4, err
		})
	}
	merged := map[string]int64{}
	for _, tc := range []struct {
		name string
		run  func(w int, ooc *tasks.OOCConfig) (*obs.RunReport, int64)
	}{{"mssp", mssp}, {"bkhs", bkhs}, {"bppr", bppr}} {
		name := label + " " + tc.name
		// The ooc backend forces one worker, so one run serves the grid.
		oocRep, _ := tc.run(0, oocDiffConfig(t))
		atDelivery := oocStrippedJSON(t, name, oocRep, true)
		for _, w := range workerGrid {
			rep, n := tc.run(w, nil)
			merged[tc.name] += n
			requireSameReport(t, fmt.Sprintf("%s workers=%d", name, w),
				oocStrippedJSON(t, name, rep, false), atDelivery)
		}
	}
	return merged
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
