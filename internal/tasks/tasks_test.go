package tasks

import (
	"math"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/ref"
	"vcmt/internal/sim"
)

func testRunCfg(k int) sim.JobConfig {
	return sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(k), System: sim.PregelPlus}
}

// runJob drives a Job on k machines through an equal-batch schedule.
func runJob(t *testing.T, job Job, k, batches int) sim.JobResult {
	t.Helper()
	run := sim.NewRun(testRunCfg(k))
	runBatches(t, job, run, batches)
	return run.Result()
}

func mirrorRun(k int) *sim.Run {
	cfg := testRunCfg(k)
	cfg.System = sim.PregelPlusMirror
	return sim.NewRun(cfg)
}

// requirePPR fails unless job's estimates from srcs are within tol of
// ref.PPR's.
func requirePPR(t *testing.T, job *BPPRJob, srcs []graph.VertexID, tol float64) {
	t.Helper()
	for _, src := range srcs {
		for v, exact := range ref.PPR(job.g, src, job.cfg.Alpha, 300) {
			if est := job.Estimate(src, graph.VertexID(v)); math.Abs(est-exact) > tol {
				t.Fatalf("PPR(%d,%d): est %.5f exact %.5f", src, v, est, exact)
			}
		}
	}
}

// requireMass fails unless every source in srcs ended walk mass want.
func requireMass(t *testing.T, job *BPPRJob, srcs []graph.VertexID, want, tol float64) {
	t.Helper()
	for _, v := range srcs {
		if mass := job.EndpointMass(v); math.Abs(mass-want) > tol {
			t.Fatalf("source %d: mass %v want %v", v, mass, want)
		}
	}
}

func TestBPPRMatchesPowerIteration(t *testing.T) {
	g := graph.GenerateChungLu(30, 120, 2.5, 5)
	job := NewBPPR(g, graph.HashPartition(30, 4), BPPRConfig{Alpha: 0.2, WalksPerNode: 5000, Seed: 7})
	runJob(t, job, 4, 1)
	requirePPR(t, job, []graph.VertexID{0, 7, 19}, 0.02)
}

func TestBPPRMassConservation(t *testing.T) {
	g := graph.GenerateChungLu(40, 160, 2.5, 9)
	job := NewBPPR(g, graph.HashPartition(40, 4), BPPRConfig{WalksPerNode: 200, Seed: 3})
	runJob(t, job, 4, 1)
	requireMass(t, job, FirstSources(40, 40), 200, 1e-9) // every vertex
}

func TestBPPRBatchingPreservesTotalWalks(t *testing.T) {
	g := graph.GenerateChungLu(30, 120, 2.5, 4)
	for _, batches := range []int{1, 2, 4} {
		job := NewBPPR(g, graph.HashPartition(30, 2), BPPRConfig{WalksPerNode: 64, Seed: 11})
		runJob(t, job, 2, batches)
		if job.WalksLaunched() != 64 {
			t.Fatalf("batches=%d launched=%d", batches, job.WalksLaunched())
		}
		requireMass(t, job, []graph.VertexID{5}, 64, 1e-9)
	}
}

func TestBPPRBatchingRoughlySameEstimates(t *testing.T) {
	g := graph.GenerateChungLu(25, 100, 2.5, 6)
	part := graph.HashPartition(25, 2)
	one := NewBPPR(g, part, BPPRConfig{Alpha: 0.2, WalksPerNode: 4000, Seed: 1})
	four := NewBPPR(g, part, BPPRConfig{Alpha: 0.2, WalksPerNode: 4000, Seed: 2})
	runJob(t, one, 2, 1)
	runJob(t, four, 2, 4)
	for v := range graph.VertexID(25) {
		if a, b := one.Estimate(3, v), four.Estimate(3, v); math.Abs(a-b) > 0.03 {
			t.Fatalf("estimates diverge at %d: %v vs %v", v, a, b)
		}
	}
}

func TestBPPRResidualEntriesGrowAcrossBatches(t *testing.T) {
	g := graph.GenerateChungLu(50, 200, 2.5, 8)
	job := NewBPPR(g, graph.HashPartition(50, 4), BPPRConfig{WalksPerNode: 32, Seed: 5})
	run := sim.NewRun(testRunCfg(4))
	var after []int64
	for b := range 2 {
		resid, err := job.RunBatch(run, 16, b)
		if err != nil {
			t.Fatal(err)
		}
		run.AddResidual(resid)
		after = append(after, run.ResidualEntries())
	}
	if after[0] <= 0 || after[1] < after[0] {
		t.Fatalf("residual entries after each batch %v: want a first batch to leave some and none to shrink", after)
	}
	if run.ResidualEntries() != job.EndpointEntries() {
		t.Fatalf("residual %d != endpoint entries %d", run.ResidualEntries(), job.EndpointEntries())
	}
}

func TestBPPRMirrorMatchesPowerIteration(t *testing.T) {
	g := graph.GenerateChungLu(30, 120, 2.5, 5)
	job := NewBPPR(g, graph.HashPartition(30, 4), BPPRConfig{
		Alpha: 0.2, WalksPerNode: 1000, Mirror: true, PruneThreshold: 0.01, Seed: 7,
	})
	if _, err := job.RunBatch(mirrorRun(4), 1000, 0); err != nil {
		t.Fatal(err)
	}
	job.launched = 1000
	requirePPR(t, job, []graph.VertexID{0, 13}, 0.01)
}

func TestBPPRMirrorMassConservation(t *testing.T) {
	g := graph.GenerateChungLu(40, 160, 2.4, 2)
	job := NewBPPR(g, graph.HashPartition(40, 4), BPPRConfig{WalksPerNode: 100, Mirror: true, Seed: 3})
	runJob(t, job, 4, 2)
	requireMass(t, job, []graph.VertexID{0, 10, 39}, 100, 1e-6*100)
}

func TestBPPRDeterministic(t *testing.T) {
	g := graph.GenerateChungLu(40, 160, 2.5, 4)
	mk := func() (float64, sim.JobResult) {
		job := NewBPPR(g, graph.HashPartition(40, 4), BPPRConfig{WalksPerNode: 64, Seed: 99})
		res := runJob(t, job, 4, 2)
		return job.Estimate(3, 7), res
	}
	e1, r1 := mk()
	e2, r2 := mk()
	if e1 != e2 || r1.TotalLogicalMsgs != r2.TotalLogicalMsgs || r1.Seconds != r2.Seconds {
		t.Fatal("BPPR not deterministic")
	}
}

func TestBPPRZeroWorkloadBatchIsNoop(t *testing.T) {
	job := NewBPPR(graph.GenerateRing(10), graph.HashPartition(10, 2), BPPRConfig{WalksPerNode: 0, Seed: 1})
	resid, err := job.RunBatch(sim.NewRun(testRunCfg(2)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resid {
		if r != 0 {
			t.Fatal("zero batch must leave no residual")
		}
	}
}

func mustMSSP(t *testing.T, g *graph.Graph, k int, cfg MSSPConfig) *MSSPJob {
	t.Helper()
	job, err := NewMSSP(g, graph.HashPartition(g.NumVertices(), k), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// requireDistances fails unless job's distances from each of its sources
// i are want(i)'s (+Inf where there is no path) to within tol.
func requireDistances(t *testing.T, job *MSSPJob, want func(i int) []float64, tol float64) {
	t.Helper()
	for i, s := range job.sources {
		for v, w := range want(i) {
			if got := job.Distance(i, graph.VertexID(v)); got != w && !(math.Abs(got-w) <= tol) {
				t.Fatalf("src %d v %d: got %v want %v", s, v, got, w)
			}
		}
	}
}

// distancesBy is f's distances from job's source i; bfs is ref.BFS's.
func distancesBy(job *MSSPJob, f func(*graph.Graph, graph.VertexID) []float64) func(i int) []float64 {
	return func(i int) []float64 { return f(job.g, job.sources[i]) }
}

func bfs(g *graph.Graph, s graph.VertexID) (d []float64) {
	for _, h := range ref.BFS(g, s) {
		d = append(d, float64(h))
		if h == -1 {
			d[len(d)-1] = math.Inf(1)
		}
	}
	return d
}

func TestMSSPMatchesBFS(t *testing.T) {
	job := mustMSSP(t, graph.GenerateChungLu(200, 800, 2.5, 3), 4, MSSPConfig{Sources: []graph.VertexID{0, 5, 17, 99}, Seed: 1})
	runJob(t, job, 4, 2)
	requireDistances(t, job, distancesBy(job, bfs), 0)
}

func TestMSSPWeightedMatchesDijkstra(t *testing.T) {
	g := graph.WithUniformWeights(graph.GenerateChungLu(100, 400, 2.5, 7), 1, 4, 13)
	job := mustMSSP(t, g, 4, MSSPConfig{Sources: []graph.VertexID{2, 50}, Seed: 1})
	runJob(t, job, 4, 1)
	requireDistances(t, job, distancesBy(job, ref.Dijkstra), 1e-4)
}

func TestMSSPMirrorMatchesBFS(t *testing.T) {
	job := mustMSSP(t, graph.GenerateChungLu(150, 600, 2.4, 21), 4, MSSPConfig{Sources: []graph.VertexID{1, 70}, Mirror: true, Seed: 1})
	if _, err := job.RunBatch(mirrorRun(4), 2, 0); err != nil {
		t.Fatal(err)
	}
	requireDistances(t, job, distancesBy(job, bfs), 0)
}

func TestMSSPBatchInvariance(t *testing.T) {
	g := graph.GenerateChungLu(120, 480, 2.5, 17)
	cfg := MSSPConfig{Sources: []graph.VertexID{0, 1, 2, 3, 4, 5, 6, 7}, Seed: 1}
	one, four := mustMSSP(t, g, 2, cfg), mustMSSP(t, g, 2, cfg)
	runJob(t, one, 2, 1)
	runJob(t, four, 2, 4)
	requireDistances(t, four, func(i int) (d []float64) {
		for v := range graph.VertexID(120) {
			d = append(d, one.Distance(i, v))
		}
		return d
	}, 0)
}

func TestMSSPStateEntriesMatchFiniteDistances(t *testing.T) {
	job := mustMSSP(t, graph.GenerateChungLu(80, 320, 2.5, 19), 4, MSSPConfig{Sources: []graph.VertexID{0, 9}, Seed: 1})
	total := runBatches(t, job, sim.NewRun(testRunCfg(4)), 1)
	var finite int64
	for i := range 2 {
		for v := range graph.VertexID(80) {
			if !math.IsInf(job.Distance(i, v), 1) {
				finite++
			}
		}
	}
	if total != finite {
		t.Fatalf("residual entries %d != finite distances %d", total, finite)
	}
}

// requireReached fails unless job reached ref.KHop's count within k hops
// of each of its sources.
func requireReached(t *testing.T, job *BKHSJob, k int) {
	t.Helper()
	for i, s := range job.sources {
		if want := int64(len(ref.KHop(job.g, s, k))); job.Reached(i) != want {
			t.Fatalf("k=%d src=%d: reached %d want %d", k, s, job.Reached(i), want)
		}
	}
}

func TestBKHSMatchesOracle(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.5, 23)
	for _, k := range []int{1, 2, 3} {
		job := NewBKHS(g, graph.HashPartition(150, 4), BKHSConfig{Sources: []graph.VertexID{0, 10, 77, 149}, K: k, Seed: 1})
		runJob(t, job, 4, 2)
		requireReached(t, job, k)
	}
}

func TestBKHSMirrorMatchesOracle(t *testing.T) {
	g := graph.GenerateChungLu(100, 400, 2.4, 29)
	job := NewBKHS(g, graph.HashPartition(100, 4), BKHSConfig{Sources: []graph.VertexID{3, 42}, K: 2, Mirror: true, Seed: 1})
	if _, err := job.RunBatch(mirrorRun(4), 2, 0); err != nil {
		t.Fatal(err)
	}
	requireReached(t, job, 2)
}

func TestMSSPMirrorRejectsWeightedGraph(t *testing.T) {
	g := graph.WithUniformWeights(graph.GenerateRing(10), 1, 2, 3)
	part := graph.HashPartition(10, 2)
	if _, err := NewMSSP(g, part, MSSPConfig{Sources: []graph.VertexID{0}, Mirror: true}); err == nil {
		t.Fatal("want error for weighted mirror MSSP")
	}
}

// TestBKHSTerminatesInKPlusOneRounds: a batch of radius k takes k+1
// rounds and reaches the oracle's k-hop sets (the conformance table runs
// k = 3).
func TestBKHSTerminatesInKPlusOneRounds(t *testing.T) {
	g := graph.GenerateChungLu(200, 800, 2.5, 31)
	part := graph.HashPartition(200, 2)
	for _, k := range []int{1, 2, 4} {
		job := NewBKHS(g, part, BKHSConfig{Sources: []graph.VertexID{0, 1}, K: k, Seed: 1})
		run := sim.NewRun(testRunCfg(2))
		if _, err := job.RunBatch(run, 2, 0); err != nil {
			t.Fatal(err)
		}
		if got := run.Result().Rounds; got != k+1 {
			t.Fatalf("k=%d: %d rounds, want k+1=%d", k, got, k+1)
		}
		for i := range 2 {
			if want := int64(len(ref.KHop(g, graph.VertexID(i), k))); job.Reached(i) != want {
				t.Fatalf("k=%d, source %d: reached %d, want %d", k, i, job.Reached(i), want)
			}
		}
	}
}

// TestBKHSRadiusBound: hop counts live in a byte with 255 = unreached, so
// the largest radius is 254 — exact on a ring, where k hops reach 2k
// vertices — and a larger one is an error, not a silent clamp (K: 300 used
// to report 508 here, not 600).
func TestBKHSRadiusBound(t *testing.T) {
	g := graph.GenerateRing(1000)
	part := graph.HashPartition(1000, 2)
	job := NewBKHS(g, part, BKHSConfig{Sources: []graph.VertexID{0}, K: MaxBKHSHops})
	if _, err := job.RunBatch(nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := job.Reached(0); got != int64(2*MaxBKHSHops) {
		t.Fatalf("k=%d on a ring reached %d vertices, want %d", MaxBKHSHops, got, 2*MaxBKHSHops)
	}
	job = NewBKHS(g, part, BKHSConfig{Sources: []graph.VertexID{0}, K: 300})
	if _, err := job.RunBatch(nil, 1, 0); err == nil {
		t.Fatalf("k=300 accepted; it reached %d vertices", job.Reached(0))
	}
}

// TestBKHSRejectsRadiusBelowOne: a negative radius is an error, not a
// radius-1 search (the source's first hop went out regardless of K).
func TestBKHSRejectsRadiusBelowOne(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 2)
	job := NewBKHS(g, part, BKHSConfig{Sources: []graph.VertexID{0}, K: -1})
	if _, err := job.NextBatch(1); err == nil {
		t.Fatal("NextBatch accepted k=-1")
	}
	if _, err := job.RunBatch(nil, 1, 0); err == nil {
		t.Fatalf("RunBatch accepted k=-1; it reached %d vertices", job.Reached(0))
	}
}

// TestFinishedJobDropsEngine: once its last batch finishes, a source-batch
// job holds only its results, not the engine that ran them nor BKHS's
// recycled hop table, and the results stay readable.
func TestFinishedJobDropsEngine(t *testing.T) {
	g := graph.GenerateChungLu(80, 320, 2.5, 19)
	part := graph.HashPartition(80, 2)
	sources := []graph.VertexID{0, 9, 40}
	mssp, err := NewMSSP(g, part, MSSPConfig{Sources: sources, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bkhs := NewBKHS(g, part, BKHSConfig{Sources: sources, Seed: 1})
	run := sim.NewRun(testRunCfg(2))
	for i := range 2 {
		if _, err := mssp.RunBatch(run, 2, i); err != nil {
			t.Fatal(err)
		}
		if _, err := bkhs.RunBatch(run, 2, i); err != nil {
			t.Fatal(err)
		}
		if last := i == 1; (mssp.eng == nil) != last || (bkhs.eng == nil) != last || (bkhs.spare == nil) != last {
			t.Fatalf("after batch %d: MSSP engine dropped %v, BKHS engine dropped %v, hop table dropped %v; want %v",
				i, mssp.eng == nil, bkhs.eng == nil, bkhs.spare == nil, last)
		}
	}
	for i, s := range sources {
		if want := int64(len(ref.KHop(g, s, 2))); bkhs.Reached(i) != want {
			t.Fatalf("src %d: reached %d, want %d", s, bkhs.Reached(i), want)
		}
		if d := mssp.Distance(i, s); d != 0 {
			t.Fatalf("src %d: distance to itself %v", s, d)
		}
	}
}

func TestBKHSReachedUnprocessedIsMinusOne(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 2)
	job := NewBKHS(g, part, BKHSConfig{Sources: []graph.VertexID{0, 5}, K: 2})
	if job.Reached(1) != -1 {
		t.Fatal("unprocessed source must report -1")
	}
}

func TestPageRankMatchesOracle(t *testing.T) {
	g := graph.GenerateChungLu(100, 500, 2.5, 37)
	part := graph.HashPartition(100, 4)
	run := sim.NewRun(testRunCfg(4))
	got, err := PageRank(g, part, run, PageRankConfig{Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.PageRank(g, 0.85, 60)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-4 {
			t.Fatalf("rank[%d]=%v want %v", v, got[v], want[v])
		}
	}
}

func TestPageRankRunsConfiguredIterations(t *testing.T) {
	g := graph.GenerateRing(20)
	part := graph.HashPartition(20, 2)
	run := sim.NewRun(testRunCfg(2))
	if _, err := PageRank(g, part, run, PageRankConfig{Iterations: 10}); err != nil {
		t.Fatal(err)
	}
	// Seed round + 10 compute rounds.
	if got := run.Result().Rounds; got != 11 {
		t.Fatalf("rounds=%d want 11", got)
	}
}

func TestJobInterfaces(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 2)
	jobs := []Job{
		NewBPPR(g, part, BPPRConfig{WalksPerNode: 4}),
		NewBKHS(g, part, BKHSConfig{Sources: []graph.VertexID{0}, K: 2}),
		mustMSSP(t, g, 2, MSSPConfig{Sources: []graph.VertexID{0, 1}}),
	}
	for _, j := range jobs {
		if mm := j.MemModel(); j.Name() == "" || j.TotalWorkload() <= 0 || mm.StateBytesPerEntry <= 0 || mm.ResidualBytesPerEntry <= 0 {
			t.Fatalf("bad job metadata: %q %d %+v", j.Name(), j.TotalWorkload(), mm)
		}
	}
}
