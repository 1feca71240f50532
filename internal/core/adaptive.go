package core

// The closed-loop extension of the §5 tuning framework. The paper's
// pipeline is open-loop: train, fit, schedule, execute blind. A mispredicted
// fit — noisy training points, or training workloads far below the
// evaluation workload — silently produces schedules that overload machines,
// exactly the failure mode the tuner exists to prevent. RunAdaptive closes
// the loop like production admission control: after every executed batch it
// compares the measured per-machine peak memory against the model's
// prediction, and when the relative error exceeds a tolerance it appends
// the observed (W, M*, M_r*) points, re-fits both curves, and re-plans the
// remaining schedule. A safety governor additionally shrinks the next batch
// whenever its predicted memory — on top of the *measured* residual, which
// needs no re-fit to be trusted — would cross p·M.

import (
	"errors"
	"math"

	"vcmt/internal/batch"
	"vcmt/internal/lma"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// AdaptiveObserver receives the closed-loop tuner's telemetry callbacks.
// internal/obs.Collector implements it; all callbacks fire synchronously
// between batches, in deterministic order.
type AdaptiveObserver interface {
	// OnBatchPrediction fires after every executed batch with the model's
	// predicted peak memory, the measured peak, and the relative error.
	OnBatchPrediction(batch, workload int, predicted, measured, relErr float64)
	// OnReplan fires when the tuner re-fits the curves and replaces the
	// remaining schedule.
	OnReplan(batch int, relErr float64, remaining []int)
	// OnGovernorShrink fires when the safety governor shrinks the next
	// batch from fromW to toW workload units.
	OnGovernorShrink(batch, fromW, toW int)
}

// maxReplans caps the closed loop's re-fit + re-plan cycles; the safety
// governor, which holds each batch to the p·M budget against the
// *measured* residual, keeps running after the cap.
const maxReplans = 16

// AdaptiveConfig tunes the closed-loop behavior; zero values select
// defaults.
type AdaptiveConfig struct {
	// Tolerance is the relative prediction error |measured − predicted| /
	// measured above which the tuner re-fits and re-plans (default 0.15).
	Tolerance float64
	// Seed drives the LMA random restarts of re-fits.
	Seed uint64
	// Observer, when non-nil, receives the tuner telemetry callbacks.
	Observer AdaptiveObserver
}

func (ac AdaptiveConfig) withDefaults() AdaptiveConfig {
	if ac.Tolerance <= 0 {
		ac.Tolerance = 0.15
	}
	return ac
}

// BatchPrediction records one executed batch's predicted versus measured
// per-machine peak memory.
type BatchPrediction struct {
	// Batch is the 1-based executed batch number.
	Batch int
	// Workload is the batch's workload.
	Workload int
	// PredictedBytes is Model.PredictedMemory under the model that planned
	// the batch; MeasuredBytes the observed per-machine peak (paper scale).
	PredictedBytes float64
	MeasuredBytes  float64
	// RelError is |measured − predicted| / measured.
	RelError float64
}

// AdaptiveResult summarizes one closed-loop run.
type AdaptiveResult struct {
	// Result is the priced job result.
	Result sim.JobResult
	// Planned is the initial static schedule S*.
	Planned batch.Schedule
	// Executed lists the batch workloads that actually ran — the realized
	// schedule after re-planning and governor shrinks.
	Executed batch.Schedule
	// Replans counts re-fit + re-plan cycles; GovernorShrinks counts
	// pre-batch shrinks forced by the safety governor.
	Replans         int
	GovernorShrinks int
	// Predictions holds one entry per executed batch.
	Predictions []BatchPrediction
	// Degraded reports that some plan along the way contained
	// minimum-granularity batches predicted to overload (ErrDegraded).
	Degraded bool
}

// MaxRelError returns the worst per-batch prediction error.
func (r AdaptiveResult) MaxRelError() float64 {
	var max float64
	for _, p := range r.Predictions {
		if p.RelError > max {
			max = p.RelError
		}
	}
	return max
}

// RunAdaptive executes the workload under the closed-loop tuner: plan with
// Schedule, execute batch-by-batch, and after each batch compare measured
// peak memory against the prediction — re-fitting the curves and
// re-planning the remainder when the error exceeds the tolerance, and
// shrinking the next batch whenever the governor predicts it would cross
// the memory budget on top of the measured residual.
//
// The model is updated in place: after the run, m carries the re-fitted
// curves and the appended observation points, so a subsequent Schedule
// benefits from everything the run measured.
func (m *Model) RunAdaptive(job tasks.Job, cfg sim.JobConfig, total int, ac AdaptiveConfig) (AdaptiveResult, error) {
	ac = ac.withDefaults()
	var res AdaptiveResult
	sched, err := m.Schedule(total)
	if errors.Is(err, ErrDegraded) {
		res.Degraded = true
	} else if err != nil {
		return res, err
	}
	res.Planned = append(batch.Schedule(nil), sched...)

	// Observation sets for the two curves, seeded with the training points.
	// The batch-memory curve is sampled at the batch workload; the residual
	// curve at the cumulative completed workload (for training batches the
	// two coincide).
	var memXs, memYs, residXs, residYs []float64
	for _, p := range m.Points {
		memXs = append(memXs, p.Workload)
		memYs = append(memYs, p.MaxMemBytes)
		residXs = append(residXs, p.Workload)
		residYs = append(residYs, p.MaxResidualBytes)
	}
	prevResid := 0.0
	refits := uint64(0)

	onDone := func(o batch.BatchObservation) batch.Schedule {
		doneBefore := o.Done - o.Workload
		predicted := m.PredictedMemory(doneBefore, o.Workload)
		measured := o.PeakMemBytes
		relErr := relError(predicted, measured)
		res.Executed = append(res.Executed, o.Workload)
		res.Predictions = append(res.Predictions, BatchPrediction{
			Batch: len(res.Executed), Workload: o.Workload,
			PredictedBytes: predicted, MeasuredBytes: measured, RelError: relErr,
		})
		if ac.Observer != nil {
			ac.Observer.OnBatchPrediction(len(res.Executed), o.Workload, predicted, measured, relErr)
		}
		remaining := total - o.Done
		if o.Overloaded || remaining <= 0 {
			prevResid = o.ResidualBytes
			return nil
		}

		// Re-fit + re-plan when the prediction missed by more than the
		// tolerance: append the observed points and learn the true curves.
		var replanned batch.Schedule
		if relErr > ac.Tolerance && res.Replans < maxReplans {
			if obs := measured - prevResid; obs > 0 {
				memXs = append(memXs, float64(o.Workload))
				memYs = append(memYs, obs)
			}
			if o.ResidualBytes > 0 {
				residXs = append(residXs, float64(o.Done))
				residYs = append(residYs, o.ResidualBytes)
			}
			refits++
			if memFit, err := lma.FitPower(memXs, memYs, lma.Options{Seed: ac.Seed + refits}); err == nil {
				m.Mem = memFit
			}
			if residFit, err := lma.FitPower(residXs, residYs, lma.Options{Seed: (ac.Seed ^ 0x5eed) + refits}); err == nil {
				m.Resid = residFit
			}
			next, err := m.ScheduleRemaining(o.Done, remaining)
			if errors.Is(err, ErrDegraded) {
				res.Degraded = true
				err = nil
			}
			if err == nil && next != nil {
				replanned = next
				res.Replans++
				if ac.Observer != nil {
					ac.Observer.OnReplan(len(res.Executed), relErr, next)
				}
			}
		}

		// Safety governor: the next batch's predicted memory on top of the
		// *measured* residual must stay under the governed budget. This
		// corrects under-predicted residual growth immediately, without
		// waiting for a re-fit to converge.
		plan := replanned
		if plan == nil {
			plan = o.Remaining
		}
		if len(plan) > 0 {
			budget := m.P * m.MachineMemBytes
			nextW := plan[0]
			if o.ResidualBytes+m.Mem.Eval(float64(nextW)) > budget {
				shrunk := int(math.Floor(m.Mem.Invert(budget - o.ResidualBytes)))
				if shrunk < 1 {
					shrunk = 1
					res.Degraded = true
				}
				if shrunk < nextW {
					tail, err := m.ScheduleRemaining(o.Done+shrunk, remaining-shrunk)
					if errors.Is(err, ErrDegraded) {
						res.Degraded = true
					} else if err != nil {
						tail = batch.Schedule{remaining - shrunk}
						res.Degraded = true
					}
					replanned = append(batch.Schedule{shrunk}, tail...)
					res.GovernorShrinks++
					if ac.Observer != nil {
						ac.Observer.OnGovernorShrink(len(res.Executed), nextW, shrunk)
					}
				}
			}
		}
		prevResid = o.ResidualBytes
		return replanned
	}

	jr, err := batch.Run(job, cfg, sched, onDone)
	if err != nil {
		return res, err
	}
	res.Result = jr
	return res, nil
}

// relError computes |measured − predicted| relative to the measured value
// (falling back to the prediction when nothing was measured).
func relError(predicted, measured float64) float64 {
	den := measured
	if den <= 0 {
		den = predicted
	}
	if den <= 0 {
		return 0
	}
	return math.Abs(measured-predicted) / den
}
