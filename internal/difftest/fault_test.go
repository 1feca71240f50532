package difftest

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// The fault axis of the differential harness: for each task, a run that
// crashes at an early, middle and final superstep and recovers from its
// checkpoint must be indistinguishable from the fault-free run — same
// per-round message counts (replays are silent), bit-identical results,
// and an identical priced verdict once the recovery-specific counters are
// stripped. Checked at worker-pool sizes 1 and 8. The crashed runs
// checkpoint into the fault-free run's directory, so each starts among a
// finished run's later snapshots and must recover from its own.

// faultWorkers are the engine pool sizes the recovery contract is checked
// at (the acceptance grid).
var faultWorkers = []int{1, 8}

// crashPlan builds a one-crash plan; difftest plans always name worker 0
// because the engine rolls the whole simulated cluster back regardless of
// which machine crashed.
func crashPlan(t *testing.T, step int) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(fmt.Sprintf("crash:worker=0,step=%d", step))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// crashSteps picks an early, middle and final superstep of an R-round run.
// Superstep 1 is never a fault point (the step-1 barrier is always
// checkpointed before any crash can fire).
func crashSteps(t *testing.T, rounds int) []int {
	t.Helper()
	if rounds < 3 {
		t.Fatalf("run too short for the fault axis: %d rounds", rounds)
	}
	return []int{2, (rounds + 2) / 2, rounds}
}

// normalizeRecovery strips the recovery-specific counters from a priced
// result: the recovery surcharge leaves Seconds, and the crash accounting
// fields are zeroed. Everything else must match the fault-free run exactly.
func normalizeRecovery(res sim.JobResult) sim.JobResult {
	res.Seconds -= res.RecoverySeconds
	res.Recoveries = 0
	res.RoundsLost = 0
	res.RecoverySeconds = 0
	return res
}

// requireRecoveredVerdict compares a recovered run's priced result against
// the fault-free baseline modulo the recovery counters.
func requireRecoveredVerdict(t *testing.T, label string, base, got sim.JobResult) {
	t.Helper()
	if got.Recoveries != 1 {
		t.Fatalf("%s: recoveries=%d want 1", label, got.Recoveries)
	}
	nb, ng := normalizeRecovery(base), normalizeRecovery(got)
	if d := math.Abs(nb.Seconds - ng.Seconds); d > 1e-9*math.Max(1, math.Abs(nb.Seconds)) {
		t.Fatalf("%s: seconds modulo recovery diverge: %v vs %v", label, nb.Seconds, ng.Seconds)
	}
	nb.Seconds, ng.Seconds = 0, 0
	if nb != ng {
		t.Fatalf("%s: priced result diverges modulo recovery:\nfault-free %+v\nrecovered  %+v", label, nb, ng)
	}
}

// TestMSSPCrashRecoveryDifferential: MSSP with a crash at each position of
// the run, at both worker counts.
func TestMSSPCrashRecoveryDifferential(t *testing.T) {
	seed := uint64(5)
	g := graph.WithUniformWeights(
		graph.GenerateChungLu(nVertices, nEdges, 2.5, seed), 1, 4, seed+100)
	part := graph.HashPartition(nVertices, nMachines)
	sources := []graph.VertexID{0, 35, 211}

	for _, workers := range faultWorkers {
		dir := t.TempDir()
		run := func(plan *fault.Plan) (*tasks.MSSPJob, *roundRecorder, sim.JobResult) {
			job, err := tasks.NewMSSP(g, part, tasks.MSSPConfig{
				Sources: sources, Seed: seed, Workers: workers,
				CheckpointDir: dir, CheckpointInterval: 2, Fault: plan,
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

		baseJob, baseRec, baseRes := run(nil)
		for _, step := range crashSteps(t, len(baseRec.perRound)) {
			label := fmt.Sprintf("mssp workers=%d crash@%d", workers, step)
			plan := crashPlan(t, step)
			job, rec, res := run(plan)
			if plan.Remaining() != 0 {
				t.Fatalf("%s: crash never fired", label)
			}
			requireSameRounds(t, label, baseRec, rec, workers)
			requireRecoveredVerdict(t, label, baseRes, res)
			for i := range sources {
				for v := 0; v < nVertices; v++ {
					a := baseJob.Distance(i, graph.VertexID(v))
					b := job.Distance(i, graph.VertexID(v))
					if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
						t.Fatalf("%s: src %d v %d: fault-free %v recovered %v",
							label, sources[i], v, a, b)
					}
				}
			}
		}
	}
}

// TestBKHSCrashRecoveryDifferential: the same axis for k-bounded BFS,
// whose short fixed round count makes the final-superstep crash the
// interesting case.
func TestBKHSCrashRecoveryDifferential(t *testing.T) {
	const k = 2
	seed := uint64(6)
	g := graph.GenerateChungLu(nVertices, nEdges, 2.4, seed)
	part := graph.HashPartition(nVertices, nMachines)
	sources := []graph.VertexID{1, 78, 250}

	for _, workers := range faultWorkers {
		dir := t.TempDir()
		run := func(plan *fault.Plan) (*tasks.BKHSJob, *roundRecorder, sim.JobResult) {
			job := tasks.NewBKHS(g, part, tasks.BKHSConfig{
				Sources: sources, K: k, Seed: seed, Workers: workers,
				CheckpointDir: dir, CheckpointInterval: 2, Fault: plan,
			})
			rec := &roundRecorder{}
			r := newRun(rec)
			r.BeginBatch()
			if _, err := job.RunBatch(r, len(sources), 0); err != nil {
				t.Fatal(err)
			}
			return job, rec, r.Result()
		}

		baseJob, baseRec, baseRes := run(nil)
		for _, step := range crashSteps(t, len(baseRec.perRound)) {
			label := fmt.Sprintf("bkhs workers=%d crash@%d", workers, step)
			plan := crashPlan(t, step)
			job, rec, res := run(plan)
			if plan.Remaining() != 0 {
				t.Fatalf("%s: crash never fired", label)
			}
			requireSameRounds(t, label, baseRec, rec, workers)
			requireRecoveredVerdict(t, label, baseRes, res)
			for i := range sources {
				if a, b := baseJob.Reached(i), job.Reached(i); a != b {
					t.Fatalf("%s: src %d reached %d vs fault-free %d", label, sources[i], b, a)
				}
			}
		}
	}
}

// TestBPPRCrashRecoveryDifferential: the randomized task is the hard case —
// recovery must restore every machine's RNG lane so the replayed walks are
// the same walks.
func TestBPPRCrashRecoveryDifferential(t *testing.T) {
	const (
		walks = 500
		alpha = 0.2
	)
	seed := uint64(7)
	g := graph.GenerateChungLu(60, 240, 2.5, seed)
	n := g.NumVertices()
	part := graph.HashPartition(n, nMachines)

	for _, workers := range faultWorkers {
		dir := t.TempDir()
		run := func(plan *fault.Plan) (*tasks.BPPRJob, *roundRecorder, sim.JobResult) {
			job := tasks.NewBPPR(g, part, tasks.BPPRConfig{
				Alpha: alpha, WalksPerNode: walks, Seed: seed, Workers: workers,
				CheckpointDir: dir, CheckpointInterval: 2, Fault: plan,
			})
			rec := &roundRecorder{}
			r := newRun(rec)
			r.BeginBatch()
			if _, err := job.RunBatch(r, walks, 0); err != nil {
				t.Fatal(err)
			}
			return job, rec, r.Result()
		}

		baseJob, baseRec, baseRes := run(nil)
		for _, step := range crashSteps(t, len(baseRec.perRound)) {
			label := fmt.Sprintf("bppr workers=%d crash@%d", workers, step)
			plan := crashPlan(t, step)
			job, rec, res := run(plan)
			if plan.Remaining() != 0 {
				t.Fatalf("%s: crash never fired", label)
			}
			requireSameRounds(t, label, baseRec, rec, workers)
			requireRecoveredVerdict(t, label, baseRes, res)
			for src := 0; src < n; src++ {
				for v := 0; v < n; v++ {
					a := baseJob.Estimate(graph.VertexID(src), graph.VertexID(v))
					b := job.Estimate(graph.VertexID(src), graph.VertexID(v))
					if a != b {
						t.Fatalf("%s: PPR(%d,%d): fault-free %v recovered %v", label, src, v, a, b)
					}
				}
			}
		}
	}
}

// TestRecoveredReportMatchesFaultFree runs MSSP twice through the full obs
// pipeline and requires the machine-readable run reports to be
// byte-identical once the recovery-specific counters (result fields and
// registry metrics) are stripped — supersteps, per-machine rows, message
// metrics and checkpoint accounting all survive a crash unchanged.
func TestRecoveredReportMatchesFaultFree(t *testing.T) {
	seed := uint64(9)
	g := graph.WithUniformWeights(
		graph.GenerateChungLu(nVertices, nEdges, 2.5, seed), 1, 4, seed+100)
	part := graph.HashPartition(nVertices, nMachines)
	sources := []graph.VertexID{0, 35, 211}
	meta := obs.RunMeta{Task: "MSSP", System: "Pregel+", Cluster: "Galaxy-8",
		Machines: nMachines, Workload: len(sources), Batches: 1, Seed: seed}
	dir := t.TempDir() // shared by both runs, like the fault axis above

	runReport := func(plan *fault.Plan) *obs.RunReport {
		col := obs.NewCollector(obs.CollectorOptions{Registry: obs.NewRegistry()})
		r := sim.NewRun(sim.JobConfig{
			Cluster:  sim.Galaxy8.WithMachines(nMachines),
			System:   sim.PregelPlus,
			Observer: col,
		})
		job, err := tasks.NewMSSP(g, part, tasks.MSSPConfig{
			Sources: sources, Seed: seed, Workers: 2,
			CheckpointDir: dir, CheckpointInterval: 2, Fault: plan,
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

	// stripRecovery removes the counters only a crashed run accumulates and
	// returns the run's sim_seconds gauge (total simulated time, which
	// carries the recovery surcharge and is compared separately).
	stripRecovery := func(rep *obs.RunReport) float64 {
		rep.Result.Seconds -= rep.Result.RecoverySeconds
		rep.Result.Recoveries = 0
		rep.Result.RoundsLost = 0
		rep.Result.RecoverySeconds = 0
		simSeconds := math.NaN()
		kept := rep.Metrics[:0]
		for _, m := range rep.Metrics {
			if strings.HasPrefix(m.Name, "recover") {
				continue
			}
			if m.Name == "sim_seconds" {
				simSeconds = m.Value
				continue
			}
			kept = append(kept, m)
		}
		rep.Metrics = kept
		return simSeconds
	}

	base := runReport(nil)
	got := runReport(crashPlan(t, 4))
	if got.Result.Recoveries != 1 {
		t.Fatalf("recovered report shows %d recoveries, want 1", got.Result.Recoveries)
	}
	recoverySurcharge := got.Result.RecoverySeconds
	baseSim := stripRecovery(base)
	gotSim := stripRecovery(got)
	if d := math.Abs((gotSim - recoverySurcharge) - baseSim); d > 1e-9 {
		t.Fatalf("sim_seconds modulo recovery diverge: fault-free %v recovered %v (surcharge %v)",
			baseSim, gotSim, recoverySurcharge)
	}
	// Seconds can carry float noise from the subtraction; compare and clamp.
	if d := math.Abs(base.Result.Seconds - got.Result.Seconds); d > 1e-9 {
		t.Fatalf("seconds modulo recovery diverge: %v vs %v", base.Result.Seconds, got.Result.Seconds)
	}
	base.Result.Seconds, got.Result.Seconds = 0, 0

	var wantJSON, gotJSON bytes.Buffer
	if err := base.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Fatalf("reports diverge modulo recovery counters:\n--- fault-free ---\n%s\n--- recovered ---\n%s",
			wantJSON.String(), gotJSON.String())
	}
}
