package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// skewedRound builds a RoundStats where machine 0 does most of the work.
func skewedRound(k int) sim.RoundStats {
	per := make([]sim.MachineRound, k)
	for i := range per {
		per[i] = sim.MachineRound{
			SentLogical: 1000, RecvLogical: 1000, RemoteLogical: 900, ActiveVertices: 50,
		}
	}
	per[0].RecvLogical = 20000
	per[0].SentLogical = 20000
	return sim.RoundStats{PerMachine: per}
}

func collectorRun(t *testing.T, events *bytes.Buffer) (*obs.Collector, sim.JobResult) {
	t.Helper()
	col := obs.NewCollector(obs.CollectorOptions{Events: events})
	run := sim.NewRun(sim.JobConfig{
		Cluster: sim.Galaxy8, System: sim.GraphD, Observer: col,
	})
	run.BeginBatch()
	run.ObserveRound(skewedRound(8))
	run.ObserveRound(skewedRound(8))
	run.BeginBatch()
	run.ObserveRound(skewedRound(8))
	return col, run.Result()
}

func TestCollectorBuildsReport(t *testing.T) {
	var events bytes.Buffer
	col, res := collectorRun(t, &events)
	rep := col.Report(obs.RunMeta{Task: "TEST", System: "GraphD", Cluster: "Galaxy-8", Machines: 8}, res)

	if rep.Schema != obs.ReportSchema {
		t.Fatalf("schema=%q", rep.Schema)
	}
	if len(rep.Batches) != 2 || len(rep.Supersteps) != 3 || len(rep.Machines) != 8 {
		t.Fatalf("batches=%d supersteps=%d machines=%d",
			len(rep.Batches), len(rep.Supersteps), len(rep.Machines))
	}
	if rep.Batches[0].Rounds != 2 || rep.Batches[1].Rounds != 1 {
		t.Fatalf("batch round counts %d/%d", rep.Batches[0].Rounds, rep.Batches[1].Rounds)
	}
	// Phase decomposition must be populated (GraphD is out-of-core, so all
	// four phases are active).
	if rep.Phases.ComputeSeconds <= 0 || rep.Phases.NetSeconds <= 0 ||
		rep.Phases.DiskSeconds <= 0 || rep.Phases.BarrierSeconds <= 0 {
		t.Fatalf("empty phase decomposition: %+v", rep.Phases)
	}
	// Machine 0 is the deliberate straggler: skew must register.
	if rep.Skew.MaxRatio <= 1.01 {
		t.Fatalf("skew not detected: %+v", rep.Skew)
	}
	if rep.Machines[0].Phases.ComputeSeconds <= rep.Machines[1].Phases.ComputeSeconds {
		t.Fatal("straggler machine should accumulate more compute time")
	}
	if len(rep.Metrics) == 0 {
		t.Fatal("no metrics in report")
	}
}

func TestCollectorEventLog(t *testing.T) {
	var events bytes.Buffer
	col, res := collectorRun(t, &events)
	col.Report(obs.RunMeta{Task: "TEST"}, res)
	if err := col.EventErr(); err != nil {
		t.Fatal(err)
	}

	var types []string
	lastSeq := 0
	sc := bufio.NewScanner(&events)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if e.Seq != lastSeq+1 {
			t.Fatalf("seq jumped: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		types = append(types, e.Type)
	}
	joined := strings.Join(types, ",")
	for _, want := range []string{
		obs.EventBatchStart, obs.EventSuperstep, obs.EventBatchEnd,
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("event log missing %q: %v", want, types)
		}
	}
	// Two batches → two batch_start and two batch_end events.
	if strings.Count(joined, obs.EventBatchStart) != 2 ||
		strings.Count(joined, obs.EventBatchEnd) != 2 {
		t.Fatalf("batch events wrong: %v", types)
	}
}

func TestOverloadEventEmittedOnce(t *testing.T) {
	var events bytes.Buffer
	col := obs.NewCollector(obs.CollectorOptions{Events: &events})
	run := sim.NewRun(sim.JobConfig{
		Cluster: sim.Galaxy8, System: sim.PregelPlus,
		StatScale: 1e9, Observer: col, // the first round goes past the cutoff
	})
	run.BeginBatch()
	run.ObserveRound(skewedRound(8))
	run.ObserveRound(skewedRound(8))
	if !strings.Contains(events.String(), obs.EventOverload) {
		t.Fatal("overload transition not logged")
	}
	if strings.Count(events.String(), obs.EventOverload) != 1 {
		t.Fatal("overload must be logged once, at the transition")
	}
}

// buildReport runs the same wiring vcrun uses — job, batch loop, collector,
// report — and returns the serialized report and event log.
func buildReport(t *testing.T) (reportJSON, eventsJSONL []byte) {
	return buildReportWorkers(t, 1)
}

// buildReportWorkers is buildReport with an explicit engine worker-pool
// size; the report must not depend on it.
func buildReportWorkers(t *testing.T, workers int) (reportJSON, eventsJSONL []byte) {
	t.Helper()
	g := graph.GenerateChungLu(200, 900, 2.5, 3)
	part := graph.HashPartition(g.NumVertices(), 4)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 8, Seed: 11, Workers: workers})

	var events bytes.Buffer
	col := obs.NewCollector(obs.CollectorOptions{Events: &events})
	cfg := sim.JobConfig{
		Cluster:              sim.Galaxy8.WithMachines(4),
		System:               sim.PregelPlus,
		StatScale:            100,
		NodeScale:            100,
		GraphBytesPerMachine: 1 << 26,
		Observer:             col,
		Task:                 job.MemModel(),
	}
	run := sim.NewRun(cfg)
	for i, w := range batch.Equal(job.TotalWorkload(), 2) {
		if run.Overloaded() || w <= 0 {
			continue
		}
		run.BeginBatch()
		resid, err := job.RunBatch(run, w, i)
		if err != nil {
			t.Fatal(err)
		}
		run.AddResidual(resid)
	}
	rep := col.Report(obs.RunMeta{
		Task: "BPPR", System: "Pregel+", Cluster: "Galaxy-8", Machines: 4,
		Workload: job.TotalWorkload(), Batches: 2, Seed: 11, StatScale: 100,
	}, run.Result())
	var out bytes.Buffer
	if err := rep.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if err := col.EventErr(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), events.Bytes()
}

// TestReportByteStableAcrossRuns is the determinism guard: the exact flow
// vcrun -report/-events uses must produce byte-identical output across two
// seeded runs.
func TestReportByteStableAcrossRuns(t *testing.T) {
	rep1, ev1 := buildReport(t)
	rep2, ev2 := buildReport(t)
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("JSON report differs between identical seeded runs")
	}
	if !bytes.Equal(ev1, ev2) {
		t.Fatal("event log differs between identical seeded runs")
	}
	// The parallel-engine determinism contract extends to the full report
	// surface: running the same job with a multi-worker engine pool must
	// reproduce the sequential report and event log byte for byte.
	for _, workers := range []int{4, 8} {
		repW, evW := buildReportWorkers(t, workers)
		if !bytes.Equal(rep1, repW) {
			t.Fatalf("JSON report differs between workers=1 and workers=%d", workers)
		}
		if !bytes.Equal(ev1, evW) {
			t.Fatalf("event log differs between workers=1 and workers=%d", workers)
		}
	}
	// Sanity: the report is real JSON with the sections the acceptance
	// criteria name.
	var rep obs.RunReport
	if err := json.Unmarshal(rep1, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Batches) == 0 || len(rep.Supersteps) == 0 || len(rep.Machines) == 0 {
		t.Fatal("report missing per-batch / per-superstep / per-machine sections")
	}
	if rep.Phases.Total() <= 0 {
		t.Fatal("report missing per-phase breakdown")
	}
}
