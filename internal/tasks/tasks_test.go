package tasks

import (
	"math"
	"testing"
	"testing/quick"

	"vcmt/internal/graph"
	"vcmt/internal/ref"
	"vcmt/internal/sim"
)

func testRunCfg(k int) sim.JobConfig {
	return sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(k), System: sim.PregelPlus}
}

// runJob drives a Job through an equal-batch schedule without the batch
// package (unit-level, avoiding an import cycle in tests).
func runJob(t *testing.T, job Job, k, batches int) sim.JobResult {
	t.Helper()
	run := sim.NewRun(testRunCfg(k))
	total := job.TotalWorkload()
	per := total / batches
	for i := 0; i < batches; i++ {
		w := per
		if i == batches-1 {
			w = total - per*(batches-1)
		}
		run.BeginBatch()
		resid, err := job.RunBatch(run, w, i)
		if err != nil {
			t.Fatal(err)
		}
		run.AddResidual(resid)
	}
	return run.Result()
}

func TestBPPRMatchesPowerIteration(t *testing.T) {
	g := graph.GenerateChungLu(30, 120, 2.5, 5)
	part := graph.HashPartition(30, 4)
	job := NewBPPR(g, part, BPPRConfig{Alpha: 0.2, WalksPerNode: 5000, Seed: 7})
	runJob(t, job, 4, 1)
	for _, src := range []graph.VertexID{0, 7, 19} {
		exact := ref.PPR(g, src, 0.2, 300)
		for v := 0; v < g.NumVertices(); v++ {
			est := job.Estimate(src, graph.VertexID(v))
			if math.Abs(est-exact[v]) > 0.02 {
				t.Fatalf("PPR(%d,%d): est %.4f exact %.4f", src, v, est, exact[v])
			}
		}
	}
}

func TestBPPRMassConservation(t *testing.T) {
	g := graph.GenerateChungLu(40, 160, 2.5, 9)
	part := graph.HashPartition(40, 4)
	job := NewBPPR(g, part, BPPRConfig{WalksPerNode: 200, Seed: 3})
	runJob(t, job, 4, 1)
	for v := 0; v < g.NumVertices(); v++ {
		mass := job.EndpointMass(graph.VertexID(v))
		if math.Abs(mass-200) > 1e-9 {
			t.Fatalf("source %d: mass %v want 200", v, mass)
		}
	}
}

func TestBPPRBatchingPreservesTotalWalks(t *testing.T) {
	g := graph.GenerateChungLu(30, 120, 2.5, 4)
	part := graph.HashPartition(30, 2)
	for _, batches := range []int{1, 2, 4} {
		job := NewBPPR(g, part, BPPRConfig{WalksPerNode: 64, Seed: 11})
		runJob(t, job, 2, batches)
		if job.WalksLaunched() != 64 {
			t.Fatalf("batches=%d launched=%d", batches, job.WalksLaunched())
		}
		mass := job.EndpointMass(5)
		if math.Abs(mass-64) > 1e-9 {
			t.Fatalf("batches=%d: mass %v", batches, mass)
		}
	}
}

func TestBPPRBatchingRoughlySameEstimates(t *testing.T) {
	g := graph.GenerateChungLu(25, 100, 2.5, 6)
	part := graph.HashPartition(25, 2)
	one := NewBPPR(g, part, BPPRConfig{Alpha: 0.2, WalksPerNode: 4000, Seed: 1})
	four := NewBPPR(g, part, BPPRConfig{Alpha: 0.2, WalksPerNode: 4000, Seed: 2})
	runJob(t, one, 2, 1)
	runJob(t, four, 2, 4)
	for v := 0; v < 25; v++ {
		a := one.Estimate(3, graph.VertexID(v))
		b := four.Estimate(3, graph.VertexID(v))
		if math.Abs(a-b) > 0.03 {
			t.Fatalf("estimates diverge at %d: %v vs %v", v, a, b)
		}
	}
}

func TestBPPRResidualEntriesGrowAcrossBatches(t *testing.T) {
	g := graph.GenerateChungLu(50, 200, 2.5, 8)
	part := graph.HashPartition(50, 4)
	job := NewBPPR(g, part, BPPRConfig{WalksPerNode: 32, Seed: 5})
	run := sim.NewRun(testRunCfg(4))
	r1, err := job.RunBatch(run, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	run.AddResidual(r1)
	after1 := run.ResidualEntries()
	if after1 <= 0 {
		t.Fatal("first batch must leave residual entries")
	}
	r2, err := job.RunBatch(run, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	run.AddResidual(r2)
	if run.ResidualEntries() < after1 {
		t.Fatal("residual entries must not shrink")
	}
	if run.ResidualEntries() != job.EndpointEntries() {
		t.Fatalf("residual %d != endpoint entries %d", run.ResidualEntries(), job.EndpointEntries())
	}
}

func TestBPPRMirrorMatchesPowerIteration(t *testing.T) {
	g := graph.GenerateChungLu(30, 120, 2.5, 5)
	part := graph.HashPartition(30, 4)
	job := NewBPPR(g, part, BPPRConfig{
		Alpha: 0.2, WalksPerNode: 1000, Mirror: true, PruneThreshold: 0.01, Seed: 7,
	})
	cfg := testRunCfg(4)
	cfg.System = sim.PregelPlusMirror
	run := sim.NewRun(cfg)
	if _, err := job.RunBatch(run, 1000, 0); err != nil {
		t.Fatal(err)
	}
	job.launched = 1000
	for _, src := range []graph.VertexID{0, 13} {
		exact := ref.PPR(g, src, 0.2, 300)
		for v := 0; v < g.NumVertices(); v++ {
			est := job.Estimate(src, graph.VertexID(v))
			if math.Abs(est-exact[v]) > 0.01 {
				t.Fatalf("mirror PPR(%d,%d): est %.5f exact %.5f", src, v, est, exact[v])
			}
		}
	}
}

func TestBPPRMirrorMassConservation(t *testing.T) {
	g := graph.GenerateChungLu(40, 160, 2.4, 2)
	part := graph.HashPartition(40, 4)
	job := NewBPPR(g, part, BPPRConfig{WalksPerNode: 100, Mirror: true, Seed: 3})
	runJob(t, job, 4, 2)
	for _, v := range []graph.VertexID{0, 10, 39} {
		mass := job.EndpointMass(v)
		if math.Abs(mass-100) > 1e-6*100 {
			t.Fatalf("source %d: fractional mass %v want 100", v, mass)
		}
	}
}

func TestBPPRDeterministic(t *testing.T) {
	g := graph.GenerateChungLu(40, 160, 2.5, 4)
	part := graph.HashPartition(40, 4)
	mk := func() (float64, sim.JobResult) {
		job := NewBPPR(g, part, BPPRConfig{WalksPerNode: 64, Seed: 99})
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
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 2)
	job := NewBPPR(g, part, BPPRConfig{WalksPerNode: 0, Seed: 1})
	run := sim.NewRun(testRunCfg(2))
	resid, err := job.RunBatch(run, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resid {
		if r != 0 {
			t.Fatal("zero batch must leave no residual")
		}
	}
}

func TestMSSPMatchesBFS(t *testing.T) {
	g := graph.GenerateChungLu(200, 800, 2.5, 3)
	part := graph.HashPartition(200, 4)
	sources := []graph.VertexID{0, 5, 17, 99}
	job, err := NewMSSP(g, part, MSSPConfig{Sources: sources, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, job, 4, 2)
	for i, s := range sources {
		exact := ref.BFS(g, s)
		for v := 0; v < g.NumVertices(); v++ {
			got := job.Distance(i, graph.VertexID(v))
			if exact[v] == -1 {
				if !math.IsInf(got, 1) {
					t.Fatalf("src %d v %d: want Inf got %v", s, v, got)
				}
				continue
			}
			if got != float64(exact[v]) {
				t.Fatalf("src %d v %d: got %v want %d", s, v, got, exact[v])
			}
		}
	}
}

func TestMSSPWeightedMatchesDijkstra(t *testing.T) {
	g := graph.WithUniformWeights(graph.GenerateChungLu(100, 400, 2.5, 7), 1, 4, 13)
	part := graph.HashPartition(100, 4)
	sources := []graph.VertexID{2, 50}
	job, err := NewMSSP(g, part, MSSPConfig{Sources: sources, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, job, 4, 1)
	for i, s := range sources {
		exact := ref.Dijkstra(g, s)
		for v := 0; v < g.NumVertices(); v++ {
			got := job.Distance(i, graph.VertexID(v))
			if math.IsInf(exact[v], 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("src %d v %d: want Inf got %v", s, v, got)
				}
				continue
			}
			if math.Abs(got-exact[v]) > 1e-4 {
				t.Fatalf("src %d v %d: got %v want %v", s, v, got, exact[v])
			}
		}
	}
}

func TestMSSPMirrorMatchesBFS(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.4, 21)
	part := graph.HashPartition(150, 4)
	sources := []graph.VertexID{1, 70}
	job, err := NewMSSP(g, part, MSSPConfig{Sources: sources, Mirror: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testRunCfg(4)
	cfg.System = sim.PregelPlusMirror
	run := sim.NewRun(cfg)
	if _, err := job.RunBatch(run, 2, 0); err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		exact := ref.BFS(g, s)
		for v := 0; v < g.NumVertices(); v++ {
			got := job.Distance(i, graph.VertexID(v))
			if exact[v] == -1 {
				if !math.IsInf(got, 1) {
					t.Fatalf("src %d v %d: want Inf", s, v)
				}
				continue
			}
			if got != float64(exact[v]) {
				t.Fatalf("src %d v %d: got %v want %d", s, v, got, exact[v])
			}
		}
	}
}

func TestMSSPMirrorRejectsWeightedGraph(t *testing.T) {
	g := graph.WithUniformWeights(graph.GenerateRing(10), 1, 2, 3)
	part := graph.HashPartition(10, 2)
	if _, err := NewMSSP(g, part, MSSPConfig{Sources: []graph.VertexID{0}, Mirror: true}); err == nil {
		t.Fatal("want error for weighted mirror MSSP")
	}
}

func TestMSSPBatchInvariance(t *testing.T) {
	g := graph.GenerateChungLu(120, 480, 2.5, 17)
	part := graph.HashPartition(120, 2)
	sources := []graph.VertexID{0, 1, 2, 3, 4, 5, 6, 7}
	mk := func(batches int) *MSSPJob {
		job, err := NewMSSP(g, part, MSSPConfig{Sources: sources, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		runJob(t, job, 2, batches)
		return job
	}
	a, b := mk(1), mk(4)
	for i := range sources {
		for v := 0; v < 120; v++ {
			da, db := a.Distance(i, graph.VertexID(v)), b.Distance(i, graph.VertexID(v))
			if da != db && !(math.IsInf(da, 1) && math.IsInf(db, 1)) {
				t.Fatalf("batching changed distance src %d v %d: %v vs %v", i, v, da, db)
			}
		}
	}
}

func TestMSSPStateEntriesMatchFiniteDistances(t *testing.T) {
	g := graph.GenerateChungLu(80, 320, 2.5, 19)
	part := graph.HashPartition(80, 4)
	sources := []graph.VertexID{0, 9}
	job, err := NewMSSP(g, part, MSSPConfig{Sources: sources, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := sim.NewRun(testRunCfg(4))
	resid, err := job.RunBatch(run, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range resid {
		total += r
	}
	var finite int64
	for i := range sources {
		for v := 0; v < 80; v++ {
			if !math.IsInf(job.Distance(i, graph.VertexID(v)), 1) {
				finite++
			}
		}
	}
	if total != finite {
		t.Fatalf("residual entries %d != finite distances %d", total, finite)
	}
}

func TestBKHSMatchesOracle(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.5, 23)
	part := graph.HashPartition(150, 4)
	sources := []graph.VertexID{0, 10, 77, 149}
	for _, k := range []int{1, 2, 3} {
		job := NewBKHS(g, part, BKHSConfig{Sources: sources, K: k, Seed: 1})
		runJob(t, job, 4, 2)
		for i, s := range sources {
			want := int64(len(ref.KHop(g, s, k)))
			if got := job.Reached(i); got != want {
				t.Fatalf("k=%d src=%d: reached %d want %d", k, s, got, want)
			}
		}
	}
}

func TestBKHSMirrorMatchesOracle(t *testing.T) {
	g := graph.GenerateChungLu(100, 400, 2.4, 29)
	part := graph.HashPartition(100, 4)
	sources := []graph.VertexID{3, 42}
	job := NewBKHS(g, part, BKHSConfig{Sources: sources, K: 2, Mirror: true, Seed: 1})
	cfg := testRunCfg(4)
	cfg.System = sim.PregelPlusMirror
	run := sim.NewRun(cfg)
	if _, err := job.RunBatch(run, 2, 0); err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want := int64(len(ref.KHop(g, s, 2)))
		if got := job.Reached(i); got != want {
			t.Fatalf("src=%d: reached %d want %d", s, got, want)
		}
	}
}

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

func TestCodecsRoundTrip(t *testing.T) {
	walk := func(src uint32, count int32) bool {
		m, n := walkKind.codec.Decode(walkKind.codec.Encode(nil, WalkMsg{Src: src, Count: count}))
		return n == 8 && m.Src == src && m.Count == count
	}
	if err := quick.Check(walk, nil); err != nil {
		t.Fatal(err)
	}
	dist := func(src uint32, d float32) bool {
		m, n := distKind.codec.Decode(distKind.codec.Encode(nil, DistMsg{Src: src, Dist: d}))
		return n == 8 && m.Src == src && (m.Dist == d || (math.IsNaN(float64(m.Dist)) && math.IsNaN(float64(d))))
	}
	if err := quick.Check(dist, nil); err != nil {
		t.Fatal(err)
	}
	hop := func(src uint32, h int32) bool {
		m, n := hopKind.codec.Decode(hopKind.codec.Encode(nil, HopMsg{Src: src, Hop: h}))
		return n == 8 && m.Src == src && m.Hop == h
	}
	if err := quick.Check(hop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJobInterfaces(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 2)
	var jobs = []Job{
		NewBPPR(g, part, BPPRConfig{WalksPerNode: 4}),
		NewBKHS(g, part, BKHSConfig{Sources: []graph.VertexID{0}, K: 2}),
	}
	mssp, err := NewMSSP(g, part, MSSPConfig{Sources: []graph.VertexID{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, mssp)
	for _, j := range jobs {
		if j.Name() == "" || j.TotalWorkload() <= 0 {
			t.Fatalf("bad job metadata: %q %d", j.Name(), j.TotalWorkload())
		}
		mm := j.MemModel()
		if mm.StateBytesPerEntry <= 0 || mm.ResidualBytesPerEntry <= 0 {
			t.Fatalf("%s: bad mem model", j.Name())
		}
	}
}
