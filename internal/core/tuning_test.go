package core

import (
	"errors"
	"math"
	"testing"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/lma"
	"vcmt/internal/randx"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// tuneFixture builds a BPPR setting where memory genuinely binds: the
// extrapolation factor is chosen so that a per-batch workload around ~60
// walks/node saturates a 14 GB machine.
func tuneFixture(t *testing.T) (JobFactory, sim.JobConfig) {
	t.Helper()
	g := graph.GenerateChungLu(500, 2000, 2.5, 3)
	part := graph.HashPartition(500, 4)
	mk := func() tasks.Job {
		return tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 1 << 20, Seed: 11})
	}
	cfg := sim.JobConfig{
		Cluster:   sim.Galaxy8.WithMachines(4),
		System:    sim.PregelPlus,
		StatScale: 30000,
		NodeScale: 1000,
	}
	return mk, cfg
}

func TestTrainProducesGrowingCurves(t *testing.T) {
	mk, cfg := tuneFixture(t)
	model, err := Train(mk, cfg, TrainConfig{MaxExponent: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Points) != 5 {
		t.Fatalf("points=%d want 5", len(model.Points))
	}
	for i := 1; i < len(model.Points); i++ {
		if model.Points[i].MaxMemBytes <= model.Points[i-1].MaxMemBytes {
			t.Fatalf("M* not increasing: %+v", model.Points)
		}
		if model.Points[i].MaxResidualBytes < model.Points[i-1].MaxResidualBytes {
			t.Fatalf("M_r* decreasing: %+v", model.Points)
		}
	}
	// The fits should interpolate the training data within 20%.
	for _, p := range model.Points {
		got := model.Mem.Eval(p.Workload)
		if got < 0.8*p.MaxMemBytes || got > 1.2*p.MaxMemBytes {
			t.Fatalf("M* fit off at W=%v: %v vs %v", p.Workload, got, p.MaxMemBytes)
		}
	}
}

func TestScheduleDecreasesAndCoversTotal(t *testing.T) {
	mk, cfg := tuneFixture(t)
	model, err := Train(mk, cfg, TrainConfig{MaxExponent: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 200
	sched, err := model.Schedule(total)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Total() != total {
		t.Fatalf("schedule total %d want %d", sched.Total(), total)
	}
	if len(sched) < 2 {
		t.Fatalf("expected a multi-batch schedule, got %v", sched)
	}
	// The paper's schedules decrease monotonically (§5): residual memory
	// accumulates so later batches get less headroom. Allow the final
	// remainder batch to break the pattern.
	for i := 1; i < len(sched)-1; i++ {
		if sched[i] > sched[i-1] {
			t.Fatalf("schedule not decreasing: %v", sched)
		}
	}
	// Every batch must fit the predicted budget.
	done := 0
	budget := model.P * model.MachineMemBytes
	for _, w := range sched {
		if pred := model.PredictedMemory(done, w); pred > 1.05*budget {
			t.Fatalf("batch %d predicted to overload: %g > %g (sched %v)", w, pred, budget, sched)
		}
		done += w
	}
}

func TestOptimizedBeatsFullParallelism(t *testing.T) {
	mk, cfg := tuneFixture(t)
	model, err := Train(mk, cfg, TrainConfig{MaxExponent: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 256
	sched, err := model.Schedule(total)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := batch.Run(mk(), cfg, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := batch.Run(mk(), cfg, batch.Single(total), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Overload && full.Seconds <= opt.Seconds {
		t.Fatalf("Full-Parallelism should lose: full=%v (overload=%v) opt=%v",
			full.Seconds, full.Overload, opt.Seconds)
	}
	if opt.Overload {
		t.Fatal("optimized schedule must not overload")
	}
	if opt.MaxMemRatio > 1.1 {
		t.Fatalf("optimized schedule exceeded memory budget: ratio %v", opt.MaxMemRatio)
	}
}

func TestSmallWorkloadGetsSingleBatch(t *testing.T) {
	mk, cfg := tuneFixture(t)
	model, err := Train(mk, cfg, TrainConfig{MaxExponent: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := model.Schedule(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 1 || sched[0] != 4 {
		t.Fatalf("tiny workload should be one batch, got %v", sched)
	}
}

func TestScheduleZeroTotal(t *testing.T) {
	m := &Model{P: 0.875, MachineMemBytes: 16 << 30}
	sched, err := m.Schedule(0)
	if err != nil || len(sched) != 0 {
		t.Fatalf("zero workload: %v %v", sched, err)
	}
}

func TestScheduleInfeasible(t *testing.T) {
	m := &Model{
		Mem:             lma.PowerFit{A: 1, B: 1, C: 1e12}, // offset above budget
		Resid:           lma.PowerFit{A: 1, B: 1, C: 0},
		P:               0.5,
		MachineMemBytes: 1e9,
	}
	if _, err := m.Schedule(100); err == nil {
		t.Fatal("want ErrInfeasible")
	}
}

func TestScheduleMinGranularityWhenResidualDominates(t *testing.T) {
	// Residual eats the budget quickly: schedule degrades to 1-unit batches
	// rather than failing.
	m := &Model{
		Mem:             lma.PowerFit{A: 1e8, B: 1, C: 0},
		Resid:           lma.PowerFit{A: 5e9, B: 1, C: 0},
		P:               1,
		MachineMemBytes: 10e9,
	}
	sched, err := m.Schedule(10)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Total() != 10 {
		t.Fatalf("total %d", sched.Total())
	}
}

func TestTrainRejectsTinyExponent(t *testing.T) {
	mk, cfg := tuneFixture(t)
	if _, err := Train(mk, cfg, TrainConfig{MaxExponent: 1}); err == nil {
		t.Fatal("want error for MaxExponent=1")
	}
	// MaxExponent=2 yields only two training points; lma.FitPower needs
	// three, so Train must reject it up front instead of failing later
	// with an unrelated ErrBadInput.
	_, err := Train(mk, cfg, TrainConfig{MaxExponent: 2})
	if err == nil {
		t.Fatal("want error for MaxExponent=2")
	}
	if errors.Is(err, lma.ErrBadInput) {
		t.Fatalf("validation must fire before fitting, got %v", err)
	}
}

func TestScheduleDegradedSurfaced(t *testing.T) {
	// Residual grows so fast that after the first batch even w=1 is
	// predicted to overload: the schedule must still come back, flagged
	// with ErrDegraded instead of silently reported as feasible.
	m := &Model{
		Mem:             lma.PowerFit{A: 1e9, B: 1, C: 0},
		Resid:           lma.PowerFit{A: 1e10, B: 1, C: 0},
		P:               1,
		MachineMemBytes: 10e9,
	}
	sched, err := m.Schedule(20)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded, got %v (sched %v)", err, sched)
	}
	if sched.Total() != 20 {
		t.Fatalf("degraded schedule must still cover the workload: %v", sched)
	}
	// First batch fills the budget; the rest limps at minimum granularity.
	if sched[0] != 10 {
		t.Fatalf("first batch %d want 10 (sched %v)", sched[0], sched)
	}
	for _, w := range sched[1:] {
		if w != 1 {
			t.Fatalf("degraded tail must be minimum granularity: %v", sched)
		}
	}
}

func TestScheduleRemainingAccountsResidual(t *testing.T) {
	m := &Model{
		// M*(W) = 0.4 GB · W, M_r*(W) = 0.1 GB · W (as the package example).
		Mem:             lma.PowerFit{A: 0.4e9, B: 1, C: 0},
		Resid:           lma.PowerFit{A: 0.1e9, B: 1, C: 0},
		P:               0.875,
		MachineMemBytes: 16e9,
	}
	full, err := m.Schedule(100)
	if err != nil {
		t.Fatal(err)
	}
	// Re-planning after the first batch with an unchanged model must
	// reproduce the tail of the static plan.
	rest, err := m.ScheduleRemaining(full[0], 100-full[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != len(full)-1 {
		t.Fatalf("remaining %v vs full %v", rest, full)
	}
	for i := range rest {
		if rest[i] != full[i+1] {
			t.Fatalf("remaining %v vs full tail %v", rest, full[1:])
		}
	}
	if got, _ := m.ScheduleRemaining(50, 0); len(got) != 0 {
		t.Fatalf("zero remaining must be empty, got %v", got)
	}
}

// TestSchedulePropertyRespectsBudget is the feasibility property of Eq. 6:
// for every fitted model, every batch of a non-degraded schedule must keep
// its predicted memory — residual of the completed work plus the batch's
// peak — under the p·M budget. Fits come from lma.FitPower over seeded
// noisy power-law curves, the same pipeline Train uses.
func TestSchedulePropertyRespectsBudget(t *testing.T) {
	const eps = 1e-9
	for seed := uint64(1); seed <= 30; seed++ {
		rng := randx.New(seed)
		// Ground-truth curves with noise, in the regime the tuner sees:
		// hundreds of MB to a few GB per workload unit.
		memA := 0.2e9 + rng.Float64()*0.8e9
		memB := 0.6 + rng.Float64()*0.7
		residA := (0.05 + rng.Float64()*0.3) * memA
		residB := 0.6 + rng.Float64()*0.7
		xs := []float64{2, 4, 8, 16, 32}
		var memYs, residYs []float64
		for _, x := range xs {
			noise := func() float64 { return 1 + 0.05*(rng.Float64()-0.5) }
			memYs = append(memYs, memA*math.Pow(x, memB)*noise())
			residYs = append(residYs, residA*math.Pow(x, residB)*noise())
		}
		memFit, err := lma.FitPower(xs, memYs, lma.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: mem fit: %v", seed, err)
		}
		residFit, err := lma.FitPower(xs, residYs, lma.Options{Seed: seed ^ 0x5eed})
		if err != nil {
			t.Fatalf("seed %d: resid fit: %v", seed, err)
		}
		m := &Model{Mem: memFit, Resid: residFit, P: 0.875, MachineMemBytes: 16e9}
		for _, total := range []int{10, 50, 200, 1000} {
			sched, err := m.Schedule(total)
			if errors.Is(err, ErrDegraded) {
				continue // degraded schedules are allowed to overshoot, and say so
			}
			if err != nil {
				continue // infeasible up front: nothing to check
			}
			if sched.Total() != total {
				t.Fatalf("seed %d total %d: schedule %v covers %d", seed, total, sched, sched.Total())
			}
			budget := m.P * m.MachineMemBytes
			done := 0
			for i, w := range sched {
				if pred := m.PredictedMemory(done, w); pred > budget*(1+eps) {
					t.Fatalf("seed %d total %d: batch %d (w=%d) predicted %g > budget %g (sched %v)",
						seed, total, i, w, pred, budget, sched)
				}
				done += w
			}
		}
	}
}

func TestMeasureBatchReportsResiduals(t *testing.T) {
	mk, cfg := tuneFixture(t)
	pt, err := MeasureBatch(mk(), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MaxMemBytes <= 0 || pt.MaxResidualBytes <= 0 {
		t.Fatalf("bad point %+v", pt)
	}
}
