// Package batch implements the paper's multi-processing execution layer:
// a workload W is divided into batches that are fed to the system
// sequentially, with the workload inside a batch processed concurrently
// (§4, "Workloads and Evaluation Metrics"). The number and sizes of the
// batches realize the round–congestion tradeoff the paper studies: fewer
// batches mean fewer communication rounds but heavier per-round message
// congestion.
//
// The runner carries residual memory across batches — the retained
// intermediate results of completed batches (§4.5) — and supports the
// paper's k-equal batching, unequal two-batch splits (Fig. 9), arbitrary
// schedules (the tuning framework of §5 emits decreasing ones), and the
// whole-graph access mode of §4.9 (Fig. 10).
package batch

import (
	"math"

	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// Schedule lists the per-batch workloads; the paper's S = {W1, ..., Wt}.
type Schedule []int

// Total returns the summed workload.
func (s Schedule) Total() int {
	t := 0
	for _, w := range s {
		t += w
	}
	return t
}

// Batches returns the number of non-empty batches.
func (s Schedule) Batches() int {
	n := 0
	for _, w := range s {
		if w > 0 {
			n++
		}
	}
	return n
}

// Equal divides total into k equal batches (the paper's k-batch mechanism;
// 1-batch is Full-Parallelism). Remainders go to the earliest batches.
func Equal(total, k int) Schedule {
	if k <= 0 {
		panic("batch: need at least one batch")
	}
	s := make(Schedule, k)
	base := total / k
	rem := total % k
	for i := range s {
		s[i] = base
		if i < rem {
			s[i]++
		}
	}
	return s
}

// TwoUnequal splits total into two batches with W1 - W2 = delta (Fig. 9).
// Odd total+delta rounds W1 down.
func TwoUnequal(total, delta int) Schedule {
	w1 := (total + delta) / 2
	if w1 < 0 {
		w1 = 0
	}
	if w1 > total {
		w1 = total
	}
	return Schedule{w1, total - w1}
}

// Single is the 1-batch Full-Parallelism schedule.
func Single(total int) Schedule { return Schedule{total} }

// BatchObservation carries what the runner measured for one executed
// batch — the feedback signal of the closed-loop tuner (§5): measured
// per-machine peak memory versus the model's prediction, and the residual
// memory the finished batches have accumulated.
type BatchObservation struct {
	// Index is the 0-based position of the batch in the executed sequence
	// (empty batches are skipped and not counted).
	Index int
	// Workload is the batch's workload.
	Workload int
	// Done is the total workload completed, including this batch.
	Done int
	// Remaining is the currently planned, not-yet-executed tail of the
	// schedule (a copy; mutating it does not affect the runner).
	Remaining Schedule
	// PeakMemBytes is the worst per-machine memory demand during this
	// batch (paper scale) — the measured M*.
	PeakMemBytes float64
	// ResidualBytes is the largest per-machine residual memory after this
	// batch (paper scale) — the measured M_r* at Done completed units.
	ResidualBytes float64
	// CumSeconds is the simulated time accumulated so far.
	CumSeconds float64
	// Overloaded reports whether the run has blown the cutoff; the runner
	// stops after this callback when true.
	Overloaded bool
}

// Run executes the job batch by batch under the given cost configuration,
// carrying residual memory from every batch into the next. Execution stops
// once the run is overloaded (past the 6000 s cutoff), as the paper's
// experiments do.
//
// onBatch, when non-nil, fires after every executed batch with its
// measurements. A non-nil return replaces the remaining (unexecuted)
// batches — the re-planning hook of the adaptive tuner; nil keeps the plan.
//
// Empty batches are skipped and not counted: the job runs the i-th
// executed batch as batch index i (which seeds its RNG, tasks.BatchSeed)
// however many empty batches precede it, so a re-planned schedule numbers
// its batches the way a fixed one does.
func Run(job tasks.Job, cfg sim.JobConfig, sched Schedule, onBatch func(BatchObservation) Schedule) (sim.JobResult, error) {
	run, err := runBatches(job, cfg, sched, onBatch)
	if err != nil {
		return sim.JobResult{}, err
	}
	return run.Result(), nil
}

// runBatches is Run's loop; it returns the finished run for callers that
// price more on top of it.
func runBatches(job tasks.Job, cfg sim.JobConfig, queue Schedule, onBatch func(BatchObservation) Schedule) (*sim.Run, error) {
	cfg.Task = job.MemModel()
	run := sim.NewRun(cfg)
	idx, done := 0, 0
	for len(queue) > 0 && !run.Overloaded() {
		w := queue[0]
		queue = queue[1:]
		if w <= 0 {
			continue
		}
		run.BeginBatch()
		resid, err := job.RunBatch(run, w, idx)
		if err != nil {
			return nil, err // the task's error names the batch
		}
		run.AddResidual(resid)
		done += w
		if onBatch != nil {
			next := onBatch(BatchObservation{
				Index:         idx,
				Workload:      w,
				Done:          done,
				Remaining:     append(Schedule(nil), queue...),
				PeakMemBytes:  run.BatchPeakMemBytes(),
				ResidualBytes: run.MaxResidualBytes(),
				CumSeconds:    run.Seconds(),
				Overloaded:    run.Overloaded(),
			})
			if next != nil {
				queue = next
			}
		}
		idx++
	}
	return run, nil
}

// mergeNsPerEntry is the whole-graph master's cost, per residual entry, to
// merge two partial results.
const mergeNsPerEntry = 50

// WholeGraphResult extends the job result with the aggregation phase cost,
// reported separately like the stacked bars of Fig. 10.
type WholeGraphResult struct {
	sim.JobResult
	AggregationSeconds float64
}

// RunWholeGraph executes the job in the whole-graph access mode of §4.9:
// the graph is replicated to every machine, the workload (not the vertex
// set) is split across the K machines, and a master aggregates the
// machine-local results at the end. The job must be built over a
// single-machine partition of the full graph (every machine runs the same
// single-machine program on 1/K of the workload; statistics of one replica
// machine are representative of all). cfg's cluster carries the true
// machine count K, and cfg.GraphBytesPerMachine must be the full
// paper-scale graph size — the mode's memory downside.
func RunWholeGraph(job tasks.Job, cfg sim.JobConfig, sched Schedule) (WholeGraphResult, error) {
	k := cfg.Cluster.Machines
	perMachine := make(Schedule, len(sched))
	for i, w := range sched {
		perMachine[i] = (w + k - 1) / k
	}
	run, err := runBatches(job, cfg, perMachine, nil)
	if err != nil {
		return WholeGraphResult{}, err
	}
	// Final aggregation: the K machines tree-reduce their partial results
	// (log2(K) levels of pairwise merges over parallel links), the upper
	// stacked bar of Fig. 10. An overloaded run broke out of the batch loop
	// early and never reaches aggregation, so pricing it would push Seconds
	// past the cutoff semantics of Run — skip it and report 0.
	var aggSec float64
	if !run.Overloaded() {
		entries := float64(run.ResidualEntries()) * run.Config().StatScale
		bytes := entries * job.MemModel().ResidualBytesPerEntry
		levels := math.Ceil(math.Log2(float64(k)))
		if k == 1 {
			levels = 0
		}
		aggSec = levels * (bytes/cfg.Cluster.NetBytesPerSec + entries*mergeNsPerEntry/1e9)
		run.AddSeconds(aggSec)
	}
	return WholeGraphResult{JobResult: run.Result(), AggregationSeconds: aggSec}, nil
}
