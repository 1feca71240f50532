// Package core implements the paper's primary contribution: the
// learning-based tuning framework for multi-processing in vertex-centric
// systems (§5). Given a unit-task algorithm A and a total workload W, the
// framework
//
//  1. runs a light-weight training phase — workloads 2^r for r = 1..h —
//     collecting each run's maximum per-machine memory M*(2^r) and maximum
//     residual memory M_r*(2^r);
//  2. fits both curves with the exponential model a·W^b + c via
//     Levenberg–Marquardt (Eq. 2, Eq. 4);
//  3. computes the batch schedule S* = {W1, ..., Wt} greedily from Eq. 5–6:
//     each batch takes the largest workload whose predicted memory, on top
//     of the residual left by earlier batches, stays under p·M (the
//     overloading threshold).
//
// The resulting schedules are monotonically decreasing — later batches get
// less headroom because residual memory accumulates — matching the paper's
// observation (§5, e.g. workload 5120 → [2747, 1388, 644, 266, 75]).
package core

import (
	"errors"
	"fmt"
	"math"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/lma"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// TrainingPoint is one observation from the training phase.
type TrainingPoint struct {
	// Workload is the trained batch workload (2^r).
	Workload float64
	// MaxMemBytes is the maximum per-machine memory M*(W), paper scale.
	MaxMemBytes float64
	// MaxResidualBytes is the maximum per-machine residual memory M_r*(W).
	MaxResidualBytes float64
}

// Model is the fitted memory model plus the machine constraint.
type Model struct {
	// Mem is M*(W) = a1·W^b1 + c1 (Eq. 2).
	Mem lma.PowerFit
	// Resid is M_r*(W) = a2·W^b2 + c2 (Eq. 2).
	Resid lma.PowerFit
	// P is the overloading parameter: a machine is overloaded when p·M of
	// its physical memory M is occupied (§5, "Machine Overloading"). Train
	// sets it to the cluster's usable fraction, 14/16.
	P float64
	// MachineMemBytes is the physical memory M per machine.
	MachineMemBytes float64
	// Points are the training observations behind the fits.
	Points []TrainingPoint
}

// TrainConfig configures the training phase.
type TrainConfig struct {
	// MaxExponent is h: training runs use workloads 2^1 .. 2^h. The
	// condition W >> 2^h keeps training cost minor (§5); default 5.
	MaxExponent int
	// Seed drives the LMA random restarts.
	Seed uint64
}

// JobFactory builds a fresh job instance for one training run; training
// runs must not share state with each other or with the evaluation run.
type JobFactory func() tasks.Job

// TrainingJobs returns the factory of the jobs Train measures for task on
// g under the system profile: a nominal workload far beyond the 2^1..2^h
// units training consumes, and for MSSP and BKHS every vertex as a source
// in id order. k is the BKHS radius (0 = 2). A spec Build rejects fails
// here rather than inside Train.
func TrainingJobs(g *graph.Graph, part *graph.Partition, system sim.SystemProfile, task string, k int, seed uint64) (JobFactory, error) {
	sources := make([]graph.VertexID, g.NumVertices())
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	spec := tasks.Spec{Task: task, Workload: 1 << 20, K: k, Sources: sources, Seed: seed}
	if _, err := tasks.Build(g, part, system, spec); err != nil {
		return nil, err
	}
	return func() tasks.Job {
		job, _ := tasks.Build(g, part, system, spec)
		return job
	}, nil
}

// Train runs the training phase for the job under the given cost
// configuration and fits the memory model. cfg should be the same
// sim.JobConfig the evaluation run will use.
func Train(mk JobFactory, cfg sim.JobConfig, tc TrainConfig) (*Model, error) {
	if tc.MaxExponent == 0 {
		tc.MaxExponent = 5
	}
	// lma.FitPower needs at least three points, so MaxExponent == 2 (two
	// training runs) would only fail later with an unrelated ErrBadInput.
	if tc.MaxExponent < 3 {
		return nil, errors.New("core: training needs at least workloads 2^1..2^3 (MaxExponent >= 3)")
	}
	var points []TrainingPoint
	for r := 1; r <= tc.MaxExponent; r++ {
		w := 1 << r
		pt, err := MeasureBatch(mk(), cfg, w)
		if err != nil {
			return nil, fmt.Errorf("core: training workload %d: %w", w, err)
		}
		points = append(points, pt)
	}
	memFit, residFit, err := fitCurves(points, tc.Seed)
	if err != nil {
		return nil, err
	}
	return &Model{
		Mem: memFit, Resid: residFit,
		P:               cfg.Cluster.UsableFrac,
		MachineMemBytes: float64(cfg.Cluster.MemBytes),
		Points:          points,
	}, nil
}

// fitCurves fits the M* and M_r* curves from training points.
func fitCurves(points []TrainingPoint, seed uint64) (mem, resid lma.PowerFit, err error) {
	xs := make([]float64, len(points))
	memYs := make([]float64, len(points))
	residYs := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.Workload
		memYs[i] = p.MaxMemBytes
		residYs[i] = p.MaxResidualBytes
	}
	mem, err = lma.FitPower(xs, memYs, lma.Options{Seed: seed})
	if err != nil {
		return mem, resid, fmt.Errorf("core: fitting M*: %w", err)
	}
	resid, err = lma.FitPower(xs, residYs, lma.Options{Seed: seed ^ 0x5eed})
	if err != nil {
		return mem, resid, fmt.Errorf("core: fitting M_r*: %w", err)
	}
	return mem, resid, nil
}

// MeasureBatch runs one standalone batch of the given workload and returns
// its training point: maximum per-machine memory and maximum per-machine
// residual bytes, at paper scale.
func MeasureBatch(job tasks.Job, cfg sim.JobConfig, workload int) (TrainingPoint, error) {
	pt := TrainingPoint{Workload: float64(workload)}
	_, err := batch.Run(job, cfg, batch.Single(workload), func(o batch.BatchObservation) batch.Schedule {
		pt.MaxMemBytes, pt.MaxResidualBytes = o.PeakMemBytes, o.ResidualBytes
		return nil
	})
	return pt, err
}

// ErrInfeasible is returned when even a single workload unit would
// overload a machine under the fitted model.
var ErrInfeasible = errors.New("core: no feasible batch schedule under the memory budget")

// ErrDegraded marks a schedule that contains minimum-granularity batches
// the model itself predicts will overload: residual memory has eaten the
// whole budget, so the remaining workload proceeds at w = 1 even though
// PredictedMemory exceeds p·M. The schedule is still returned — callers
// (vctune, experiments) should warn rather than report it as feasible.
var ErrDegraded = errors.New("core: schedule degraded to minimum-granularity batches predicted to overload")

// Schedule computes the optimized batch schedule S* for a total workload W
// via Eq. 5–6: W1 solves M*(W1) = p·M, and each later batch solves
// M*(W_{i+1}) = p·M − M_r*(Σ_{j≤i} W_j).
//
// When the model predicts that even minimum-granularity batches overload
// after some prefix, the full schedule is returned together with an error
// wrapping ErrDegraded.
func (m *Model) Schedule(total int) (batch.Schedule, error) {
	return m.scheduleFrom(0, total)
}

// ScheduleRemaining plans the remaining workload after `done` units have
// already completed, accounting for the residual memory they left behind —
// the re-planning step of the closed-loop tuner. Like Schedule it may
// return a schedule alongside an ErrDegraded-wrapped error.
func (m *Model) ScheduleRemaining(done, remaining int) (batch.Schedule, error) {
	return m.scheduleFrom(done, remaining)
}

func (m *Model) scheduleFrom(done, remaining int) (batch.Schedule, error) {
	if remaining <= 0 {
		return batch.Schedule{}, nil
	}
	budget := m.P * m.MachineMemBytes
	total := done + remaining
	var sched batch.Schedule
	degraded := false
	for done < total {
		residNow := 0.0
		if done > 0 {
			residNow = m.Resid.Eval(float64(done))
		}
		headroom := budget - residNow
		w := int(math.Floor(m.Mem.Invert(headroom)))
		if w < 1 {
			if len(sched) == 0 && done == 0 {
				return nil, ErrInfeasible
			}
			// Residual memory has eaten the entire budget; the remaining
			// workload proceeds at the minimum granularity, which the model
			// predicts will overload — surface it instead of staying silent.
			w = 1
			degraded = true
		}
		if w > total-done {
			w = total - done
		}
		sched = append(sched, w)
		done += w
		if len(sched) > 10000 {
			return nil, fmt.Errorf("core: schedule for workload %d did not converge", total)
		}
	}
	if degraded {
		return sched, fmt.Errorf("core: schedule %v: %w", []int(sched), ErrDegraded)
	}
	return sched, nil
}

// PredictedMemory returns the model's memory prediction for running a
// batch of workload w after `done` workload units have completed.
func (m *Model) PredictedMemory(done, w int) float64 {
	resid := 0.0
	if done > 0 {
		resid = m.Resid.Eval(float64(done))
	}
	return resid + m.Mem.Eval(float64(w))
}

// ObservePoint appends a measured observation to the model's training
// set. Long-lived callers (the vcserve admission controller) feed back the
// peak and residual memory measured from completed jobs, then Refit to
// close the loop server-side — the same idiom RunAdaptive applies within a
// single run.
func (m *Model) ObservePoint(p TrainingPoint) {
	m.Points = append(m.Points, p)
}

// Refit re-fits both curves from the accumulated Points (training runs
// plus any ObservePoint feedback). On fit failure the model keeps its
// current curves and the error is returned, so a pathological observation
// can never leave the model without a usable fit.
func (m *Model) Refit(seed uint64) error {
	mem, resid, err := fitCurves(m.Points, seed)
	if err != nil {
		return err
	}
	m.Mem, m.Resid = mem, resid
	return nil
}
