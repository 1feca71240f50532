package gas_test

import (
	"errors"
	"math"
	"testing"

	"vcmt/internal/gas"
	"vcmt/internal/graph"
	"vcmt/internal/ref"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
	"vcmt/internal/vcapi"
)

func cfg(k int, sys sim.SystemProfile) sim.JobConfig {
	return sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(k), System: sys}
}

func TestAsyncMSSPMatchesBFS(t *testing.T) {
	g := graph.GenerateChungLu(200, 800, 2.5, 3)
	part := graph.HashPartition(200, 4)
	sources := []graph.VertexID{0, 5, 17, 99}
	job, err := tasks.NewMSSP(g, part, tasks.MSSPConfig{Sources: sources, Async: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := sim.NewRun(cfg(4, sim.GraphLabAsync))
	for i := 0; i < 2; i++ {
		if _, err := job.RunBatch(run, 2, i); err != nil {
			t.Fatal(err)
		}
	}
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

func TestAsyncBKHSMatchesOracle(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.5, 23)
	part := graph.HashPartition(150, 4)
	sources := []graph.VertexID{0, 10, 77}
	job := tasks.NewBKHS(g, part, tasks.BKHSConfig{Sources: sources, K: 2, Async: true, Seed: 1})
	run := sim.NewRun(cfg(4, sim.GraphLabAsync))
	if _, err := job.RunBatch(run, 3, 0); err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want := int64(len(ref.KHop(g, s, 2)))
		if got := job.Reached(i); got != want {
			t.Fatalf("src=%d: reached %d want %d", s, got, want)
		}
	}
}

func TestAsyncBPPRMatchesPowerIteration(t *testing.T) {
	g := graph.GenerateChungLu(30, 120, 2.5, 5)
	part := graph.HashPartition(30, 4)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{
		Alpha: 0.2, WalksPerNode: 5000, Async: true, Seed: 7,
	})
	run := sim.NewRun(cfg(4, sim.GraphLabAsync))
	if _, err := job.RunBatch(run, 5000, 0); err != nil {
		t.Fatal(err)
	}
	exact := ref.PPR(g, 0, 0.2, 300)
	for v := 0; v < g.NumVertices(); v++ {
		// WalksLaunched is updated by RunBatch.
		est := job.Estimate(0, graph.VertexID(v))
		if math.Abs(est-exact[v]) > 0.02 {
			t.Fatalf("async PPR(0,%d): est %.4f exact %.4f", v, est, exact[v])
		}
	}
}

func TestAsyncBPPRMassConservation(t *testing.T) {
	g := graph.GenerateChungLu(40, 160, 2.5, 9)
	part := graph.HashPartition(40, 4)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 200, Async: true, Seed: 3})
	run := sim.NewRun(cfg(4, sim.GraphLabAsync))
	if _, err := job.RunBatch(run, 200, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.VertexID{0, 20, 39} {
		mass := job.EndpointMass(v)
		if math.Abs(mass-200) > 1e-9 {
			t.Fatalf("source %d: mass %v want 200", v, mass)
		}
	}
}

func TestAsyncPageRankMatchesOracle(t *testing.T) {
	g := graph.GenerateChungLu(100, 500, 2.5, 37)
	part := graph.HashPartition(100, 4)
	run := sim.NewRun(cfg(4, sim.GraphLabAsync))
	got, err := tasks.AsyncPageRank(g, part, run, tasks.AsyncPageRankConfig{Tolerance: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.PageRank(g, 0.85, 100)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-4 {
			t.Fatalf("rank[%d]=%v want %v", v, got[v], want[v])
		}
	}
}

func TestAsyncPageRankSendsFewerMessagesThanSync(t *testing.T) {
	g := graph.GenerateChungLu(300, 1200, 2.5, 41)
	part := graph.HashPartition(300, 4)
	syncRun := sim.NewRun(cfg(4, sim.GraphLab))
	if _, err := tasks.PageRank(g, part, syncRun, tasks.PageRankConfig{Iterations: 30}); err != nil {
		t.Fatal(err)
	}
	asyncRun := sim.NewRun(cfg(4, sim.GraphLabAsync))
	if _, err := tasks.AsyncPageRank(g, part, asyncRun, tasks.AsyncPageRankConfig{}); err != nil {
		t.Fatal(err)
	}
	if asyncRun.Result().TotalLogicalMsgs >= syncRun.Result().TotalLogicalMsgs {
		t.Fatalf("delta-PageRank should need fewer messages: async %.0f sync %.0f",
			asyncRun.Result().TotalLogicalMsgs, syncRun.Result().TotalLogicalMsgs)
	}
}

func TestAsyncNoBarrierNoRemoteIsCheap(t *testing.T) {
	// An async run's epochs carry no barrier cost; verify via empty rounds.
	g := graph.GenerateRing(8)
	part := graph.HashPartition(8, 2)
	run := sim.NewRun(cfg(2, sim.GraphLabAsync))
	job := tasks.NewBKHS(g, part, tasks.BKHSConfig{Sources: []graph.VertexID{0}, K: 1, Async: true})
	if _, err := job.RunBatch(run, 1, 0); err != nil {
		t.Fatal(err)
	}
	syncRun := sim.NewRun(cfg(2, sim.GraphLab))
	jobSync := tasks.NewBKHS(g, part, tasks.BKHSConfig{Sources: []graph.VertexID{0}, K: 1})
	if _, err := jobSync.RunBatch(syncRun, 1, 0); err != nil {
		t.Fatal(err)
	}
	if run.Seconds() >= syncRun.Seconds() {
		t.Fatalf("async tiny job should beat sync barriers: %v vs %v", run.Seconds(), syncRun.Seconds())
	}
}

func TestAsyncActivationsReported(t *testing.T) {
	g := graph.GenerateChungLu(100, 400, 2.5, 11)
	part := graph.HashPartition(100, 4)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 16, Async: true, Seed: 1})
	run := sim.NewRun(cfg(4, sim.GraphLabAsync))
	if _, err := job.RunBatch(run, 16, 0); err != nil {
		t.Fatal(err)
	}
	res := run.Result()
	if res.Rounds <= 0 {
		t.Fatal("no epochs reported")
	}
	if res.TotalLogicalMsgs <= 0 {
		t.Fatal("no messages reported")
	}
}

func TestAsyncDeterministic(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 13)
	part := graph.HashPartition(60, 4)
	mk := func() (float64, float64) {
		job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 32, Async: true, Seed: 77})
		run := sim.NewRun(cfg(4, sim.GraphLabAsync))
		if _, err := job.RunBatch(run, 32, 0); err != nil {
			t.Fatal(err)
		}
		return job.Estimate(2, 5), run.Result().TotalLogicalMsgs
	}
	e1, m1 := mk()
	e2, m2 := mk()
	if e1 != e2 || m1 != m2 {
		t.Fatal("async executor not deterministic")
	}
}

// TestAsyncMaxEpochs: a program that never drains stops at gas.MaxEpochs
// epochs — on two vertices, about 200 000 activations.
func TestAsyncMaxEpochs(t *testing.T) {
	g := graph.GenerateRing(2)
	part := graph.HashPartition(2, 2)
	prog := &chatterProg{limit: 1 << 20}
	a := gas.NewAsync[int](g, part, prog, nil, gas.Options[int]{})
	if err := a.Run(); !errors.Is(err, gas.ErrMaxEpochs) || a.Epochs() != gas.MaxEpochs {
		t.Fatalf("Run returned %v after %d epochs, want ErrMaxEpochs after %d", err, a.Epochs(), gas.MaxEpochs)
	}
}

// chatterProg bounces a message around forever.
type chatterProg struct {
	limit int
	sent  int
}

func (p *chatterProg) Seed(ctx vcapi.Context[int]) {
	if ctx.Machine() == 0 {
		ctx.Send(0, 1)
	}
}

func (p *chatterProg) Compute(ctx vcapi.Context[int], v graph.VertexID, msgs []int) {
	if p.sent >= p.limit {
		return
	}
	p.sent++
	ns := ctx.Graph().Neighbors(v)
	if len(ns) > 0 {
		ctx.Send(ns[0], 1)
	}
}

func TestAsyncStopWhenOverloaded(t *testing.T) {
	g := graph.GenerateChungLu(200, 800, 2.4, 17)
	part := graph.HashPartition(200, 2)
	c := cfg(2, sim.GraphLabAsync)
	c.StatScale = 1e9 // the run goes past the cutoff
	run := sim.NewRun(c)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 64, Async: true, Seed: 1})
	if _, err := job.RunBatch(run, 64, 0); err != nil {
		t.Fatal(err)
	}
	if !run.Overloaded() {
		t.Fatal("run should be overloaded")
	}
}

func TestAsyncEpochsCounted(t *testing.T) {
	g := graph.GenerateChungLu(100, 400, 2.5, 19)
	part := graph.HashPartition(100, 4)
	prog := &chatterProg{limit: 1000}
	a := gas.NewAsync[int](g, part, prog, nil, gas.Options[int]{})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Epochs() < 5 {
		t.Fatalf("epochs=%d, expected several with small epoch size", a.Epochs())
	}
}
