package tasks

import (
	"bytes"
	"fmt"
	"testing"

	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/sim"
)

// TestResetEqualsFresh is the engine-reuse axis of the differential
// contract: a job that re-arms one engine with Reset for every batch after
// the first must be indistinguishable from one that constructs an engine
// per batch — byte-identical run reports and identical task outputs — for
// every task, with and without the keyed combiner, at every worker-pool
// size, through a checkpoint-crash-recover run and out of core. It lives
// here and not in internal/difftest because only a test inside the package
// can take a job's engine away between batches; no exported switch selects
// engine-per-batch any more.
func TestResetEqualsFresh(t *testing.T) {
	const (
		n, k    = 300, 4
		batches = 3
	)
	modes := []string{"plain", "crash", "ooc"}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1] // the out-of-core runs are file-bound
	}
	for _, seed := range seeds {
		g := graph.GenerateChungLu(n, 1200, 2.5, seed)
		part := graph.HashPartition(n, k)
		sources := make([]graph.VertexID, 0, 9)
		for i := 0; len(sources) < cap(sources); i++ {
			sources = append(sources, graph.VertexID((seed*31+uint64(i)*37)%n))
		}
		for _, workers := range []int{1, 2, 8} {
			for _, combine := range []bool{false, true} {
				for _, mode := range modes {
					if mode == "ooc" && workers != 1 {
						continue // the out-of-core backend forces one worker
					}
					// build returns a job and the function that drops its
					// engine; every call gets its own directories and its
					// own one-shot fault plan.
					build := map[string]func() (Job, func(), func() []byte){
						"MSSP": func() (Job, func(), func() []byte) {
							cfg := MSSPConfig{Sources: sources, Seed: seed, Workers: workers, Combine: combine}
							cfg.CheckpointDir, cfg.CheckpointInterval, cfg.Fault, cfg.OOC = modeConfig(t, mode)
							j, err := NewMSSP(g, part, cfg)
							if err != nil {
								t.Fatal(err)
							}
							return j, func() { j.eng = nil }, func() []byte {
								var out []byte
								for i := range sources {
									for v := range n {
										out = fmt.Append(out, j.Distance(i, graph.VertexID(v)))
									}
								}
								return out
							}
						},
						"BKHS": func() (Job, func(), func() []byte) {
							cfg := BKHSConfig{Sources: sources, K: 3, Seed: seed, Workers: workers, Combine: combine}
							cfg.CheckpointDir, cfg.CheckpointInterval, cfg.Fault, cfg.OOC = modeConfig(t, mode)
							j := NewBKHS(g, part, cfg)
							return j, func() { j.eng = nil }, func() []byte { return fmt.Append(nil, j.reached) }
						},
						"BPPR": func() (Job, func(), func() []byte) {
							cfg := BPPRConfig{WalksPerNode: 6, Seed: seed, Workers: workers, Combine: combine}
							cfg.CheckpointDir, cfg.CheckpointInterval, cfg.Fault, cfg.OOC = modeConfig(t, mode)
							j := NewBPPR(g, part, cfg)
							return j, func() { j.mcEng = nil }, func() []byte { return j.appendEndpoints(nil) }
						},
					}
					for task, mk := range build {
						label := fmt.Sprintf("%s seed=%d workers=%d combine=%v %s", task, seed, workers, combine, mode)
						var reports, outputs [2][]byte
						for fresh := 0; fresh < 2; fresh++ {
							job, dropEngine, output := mk()
							reports[fresh] = batchedReport(t, label, job, batches, func() {
								if fresh == 1 {
									dropEngine()
								}
							})
							outputs[fresh] = output()
						}
						if !bytes.Equal(reports[0], reports[1]) {
							t.Fatalf("%s: report through Reset differs from engine-per-batch", label)
						}
						if !bytes.Equal(outputs[0], outputs[1]) {
							t.Fatalf("%s: task output through Reset differs from engine-per-batch", label)
						}
					}
				}
			}
		}
	}
}

// modeConfig returns the checkpoint, fault and out-of-core settings of one
// TestResetEqualsFresh mode. The crash fires in the first batch that reaches
// superstep 3, so the later batches re-arm an engine that has recovered.
func modeConfig(t *testing.T, mode string) (dir string, interval int, plan *fault.Plan, oc *OOCConfig) {
	t.Helper()
	switch mode {
	case "crash":
		p, err := fault.Parse("crash:worker=0,step=3")
		if err != nil {
			t.Fatal(err)
		}
		return t.TempDir(), 2, p, nil
	case "ooc":
		return "", 0, nil, &OOCConfig{Dir: t.TempDir(), Partitions: 3}
	}
	return "", 0, nil, nil
}

// batchedReport runs job in equal batches under a full collector, calling
// beforeBatch ahead of each, and returns the serialized run report.
func batchedReport(t *testing.T, label string, job Job, batches int, beforeBatch func()) []byte {
	t.Helper()
	col := obs.NewCollector(obs.CollectorOptions{Registry: obs.NewRegistry()})
	cfg := testRunCfg(4)
	cfg.Task = job.MemModel()
	cfg.Observer = col
	run := sim.NewRun(cfg)
	per := job.TotalWorkload() / batches
	for i := 0; i < batches; i++ {
		beforeBatch()
		run.BeginBatch()
		resid, err := job.RunBatch(run, per, i)
		if err != nil {
			t.Fatalf("%s: batch %d: %v", label, i, err)
		}
		run.AddResidual(resid)
	}
	rep := col.Report(obs.RunMeta{
		Task: job.Name(), System: "PregelPlus", Cluster: "Galaxy8",
		Machines: 4, Workload: job.TotalWorkload(), Batches: batches, Seed: 1,
	}, run.Result())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: serialize report: %v", label, err)
	}
	return buf.Bytes()
}
