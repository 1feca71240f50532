package batch

import (
	"testing"
	"testing/quick"

	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

func TestEqualSchedule(t *testing.T) {
	s := Equal(10, 3)
	if s.Total() != 10 {
		t.Fatalf("total=%d", s.Total())
	}
	if s[0] != 4 || s[1] != 3 || s[2] != 3 {
		t.Fatalf("schedule %v", s)
	}
	if s.Batches() != 3 {
		t.Fatalf("batches=%d", s.Batches())
	}
}

func TestEqualScheduleMoreBatchesThanWork(t *testing.T) {
	s := Equal(3, 8)
	if s.Total() != 3 {
		t.Fatalf("total=%d", s.Total())
	}
	if s.Batches() != 3 {
		t.Fatalf("non-empty batches=%d want 3", s.Batches())
	}
}

func TestEqualPanicsOnZeroBatches(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Equal(10, 0)
}

func TestEqualScheduleProperty(t *testing.T) {
	f := func(totalRaw uint16, kRaw uint8) bool {
		total := int(totalRaw)
		k := int(kRaw)%32 + 1
		s := Equal(total, k)
		if s.Total() != total || len(s) != k {
			return false
		}
		// Batch sizes differ by at most one.
		min, max := s[0], s[0]
		for _, w := range s {
			if w < min {
				min = w
			}
			if w > max {
				max = w
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoUnequal(t *testing.T) {
	s := TwoUnequal(100, 20)
	if s[0] != 60 || s[1] != 40 {
		t.Fatalf("schedule %v", s)
	}
	s = TwoUnequal(100, -20)
	if s[0] != 40 || s[1] != 60 {
		t.Fatalf("schedule %v", s)
	}
	// Delta beyond total clamps to a single batch.
	s = TwoUnequal(100, 500)
	if s[0] != 100 || s[1] != 0 {
		t.Fatalf("schedule %v", s)
	}
	s = TwoUnequal(100, -500)
	if s[0] != 0 || s[1] != 100 {
		t.Fatalf("schedule %v", s)
	}
}

func TestSingleSchedule(t *testing.T) {
	s := Single(42)
	if len(s) != 1 || s[0] != 42 {
		t.Fatalf("schedule %v", s)
	}
}

func testCfg(k int) sim.JobConfig {
	return sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(k), System: sim.PregelPlus}
}

func TestRunExecutesAllBatches(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 3)
	part := graph.HashPartition(60, 4)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 32, Seed: 1})
	res, err := Run(job, testCfg(4), Equal(32, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 4 {
		t.Fatalf("batches=%d", res.Batches)
	}
	if job.WalksLaunched() != 32 {
		t.Fatalf("launched=%d", job.WalksLaunched())
	}
	if res.Seconds <= 0 || res.Rounds <= 0 {
		t.Fatal("no cost recorded")
	}
}

func TestRunSkipsEmptyBatches(t *testing.T) {
	g := graph.GenerateRing(20)
	part := graph.HashPartition(20, 2)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 2, Seed: 1})
	res, err := Run(job, testCfg(2), Equal(2, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 2 {
		t.Fatalf("batches=%d want 2 (six empty)", res.Batches)
	}
}

// indexJob records the batch index the runner passes to every RunBatch.
type indexJob struct{ idx []int }

func (j *indexJob) Name() string               { return "index" }
func (j *indexJob) TotalWorkload() int         { return 8 }
func (j *indexJob) MemModel() sim.TaskMemModel { return sim.TaskMemModel{} }
func (j *indexJob) RunBatch(_ *sim.Run, _, batchIdx int) ([]int64, error) {
	j.idx = append(j.idx, batchIdx)
	return nil, nil
}

// TestRunNumbersExecutedBatches pins the runner's one batch-index rule: an
// empty batch is skipped and not counted, so the batch after it runs as
// index 1, not as its schedule position 2.
func TestRunNumbersExecutedBatches(t *testing.T) {
	job := &indexJob{}
	var hookIdx []int
	res, err := Run(job, testCfg(2), Schedule{4, 0, 4}, func(o BatchObservation) Schedule {
		hookIdx = append(hookIdx, o.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(job.idx) != 2 || job.idx[0] != 0 || job.idx[1] != 1 {
		t.Fatalf("RunBatch indices %v, want [0 1]", job.idx)
	}
	if len(hookIdx) != 2 || hookIdx[1] != 1 {
		t.Fatalf("hook indices %v, want [0 1]", hookIdx)
	}
	if res.Batches != 2 {
		t.Fatalf("batches=%d, want 2 (the empty batch is not counted)", res.Batches)
	}
}

func TestRunCarriesResidual(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 5)
	part := graph.HashPartition(60, 4)
	one := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 64, Seed: 1})
	resOne, err := Run(one, testCfg(4), Single(64), nil)
	if err != nil {
		t.Fatal(err)
	}
	four := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 64, Seed: 1})
	resFour, err := Run(four, testCfg(4), Equal(64, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	// With batching, later batches run with earlier batches' residual
	// memory in place; peak memory accounts for it. With a single batch
	// residual never applies, so peak per-round message memory dominates.
	if resFour.PeakMemBytes <= 0 || resOne.PeakMemBytes <= 0 {
		t.Fatal("no memory accounted")
	}
	if resFour.MaxMsgsPerRound >= resOne.MaxMsgsPerRound {
		t.Fatal("batching must cut the per-round message peak")
	}
}

func TestRunStopsWhenOverloaded(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 7)
	part := graph.HashPartition(60, 4)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 64, Seed: 1})
	cfg := testCfg(4)
	cfg.StatScale = 1e9 // the first batch runs past the cutoff
	res, err := Run(job, cfg, Equal(64, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overload {
		t.Fatal("run must be overloaded")
	}
	if res.Batches >= 8 {
		t.Fatal("overloaded run must stop early")
	}
}

func TestRunWholeGraph(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 9)
	// Whole-graph mode: the job runs over a single-machine partition.
	part := graph.HashPartition(60, 1)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 64, Seed: 1})
	cfg := testCfg(8) // 8 machines in the cost model
	cfg.GraphBytesPerMachine = float64(g.MemoryBytes())
	res, err := RunWholeGraph(job, cfg, Equal(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.AggregationSeconds <= 0 {
		t.Fatal("aggregation phase must cost time")
	}
	if res.WireBytesTotal != 0 {
		t.Fatal("whole-graph mode must not send remote traffic during compute")
	}
	// Each machine processes 1/8 of every batch.
	if job.WalksLaunched() != 8 {
		t.Fatalf("per-machine walks=%d want 8", job.WalksLaunched())
	}
}

func TestScheduleHelpers(t *testing.T) {
	if Schedule(nil).Total() != 0 || Schedule(nil).Batches() != 0 {
		t.Fatal("empty schedule must be zero")
	}
}

func TestRunWithOptionsFiresHookPerBatch(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 3)
	part := graph.HashPartition(60, 4)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 32, Seed: 1})
	var obs []BatchObservation
	res, err := Run(job, testCfg(4), Equal(32, 4), func(o BatchObservation) Schedule {
		obs = append(obs, o)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 4 || res.Batches != 4 {
		t.Fatalf("hooks=%d batches=%d want 4", len(obs), res.Batches)
	}
	done := 0
	for i, o := range obs {
		done += o.Workload
		if o.Index != i || o.Done != done {
			t.Fatalf("hook %d: %+v", i, o)
		}
		if o.PeakMemBytes <= 0 {
			t.Fatalf("hook %d: no batch peak memory measured", i)
		}
		if len(o.Remaining) != 3-i {
			t.Fatalf("hook %d: remaining %v", i, o.Remaining)
		}
	}
	// Residual memory accumulates monotonically across batches.
	for i := 1; i < len(obs); i++ {
		if obs[i].ResidualBytes < obs[i-1].ResidualBytes {
			t.Fatalf("residual decreased: %v -> %v", obs[i-1].ResidualBytes, obs[i].ResidualBytes)
		}
	}
	if obs[len(obs)-1].ResidualBytes <= 0 {
		t.Fatal("no residual measured after final batch")
	}
}

func TestRunWithOptionsReplanReplacesRemaining(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 3)
	part := graph.HashPartition(60, 4)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 32, Seed: 1})
	var executed []int
	res, err := Run(job, testCfg(4), Schedule{16, 16}, func(o BatchObservation) Schedule {
		executed = append(executed, o.Workload)
		if o.Index == 0 {
			// Re-plan the remaining 16 units as four batches of 4.
			return Equal(16, 4)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16, 4, 4, 4, 4}
	if len(executed) != len(want) {
		t.Fatalf("executed %v want %v", executed, want)
	}
	for i := range want {
		if executed[i] != want[i] {
			t.Fatalf("executed %v want %v", executed, want)
		}
	}
	if res.Batches != 5 {
		t.Fatalf("batches=%d want 5", res.Batches)
	}
	if job.WalksLaunched() != 32 {
		t.Fatalf("launched=%d want 32", job.WalksLaunched())
	}
}

func TestRunWithOptionsStopsWhenOverloaded(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 7)
	part := graph.HashPartition(60, 4)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 64, Seed: 1})
	cfg := testCfg(4)
	cfg.StatScale = 1e9 // the first batch runs past the cutoff
	hooks := 0
	res, err := Run(job, cfg, Equal(64, 8), func(o BatchObservation) Schedule {
		hooks++
		if !o.Overloaded {
			t.Fatal("hook after the cutoff must report Overloaded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overload {
		t.Fatal("run must be overloaded")
	}
	if hooks != 1 {
		t.Fatalf("hooks=%d want 1 (runner must stop after overload)", hooks)
	}
}

func TestRunWholeGraphSkipsAggregationWhenOverloaded(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 9)
	part := graph.HashPartition(60, 1)
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 64, Seed: 1})
	cfg := testCfg(8)
	cfg.GraphBytesPerMachine = float64(g.MemoryBytes())
	cfg.StatScale = 1e9 // the first batch runs past the cutoff
	res, err := RunWholeGraph(job, cfg, Equal(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overload {
		t.Fatal("run must be overloaded")
	}
	if res.AggregationSeconds != 0 {
		t.Fatalf("overloaded run must not price aggregation, got %v", res.AggregationSeconds)
	}
}
