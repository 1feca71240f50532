package experiments

import (
	"errors"
	"fmt"

	"vcmt/internal/batch"
	"vcmt/internal/core"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// AdaptivePoint is one row of the static-versus-adaptive comparison: the
// same mispriced model drives the open-loop schedule S* (executed blind)
// and the closed-loop RunAdaptive (re-fit + re-plan + governor), with an
// oracle trained without the calibration gap as the reference.
type AdaptivePoint struct {
	PaperW int
	// TrainBias scales the training runs' extrapolation factor below the
	// evaluation deployment's: the §5 affordability condition pushes
	// training onto light, cheap runs, where stale statistics or a lighter
	// test deployment under-measure per-workload memory by exactly this
	// kind of factor.
	TrainBias float64
	// Pressure scales the evaluation deployment's extrapolation factor to
	// sweep memory pressure.
	Pressure float64
	Workload int // replica workload (100× the top 2^3 training workload and up)

	StaticSchedule batch.Schedule
	StaticDegraded bool // Schedule returned ErrDegraded (min-granularity overload tail)
	Static         sim.JobResult

	AdaptiveSec      float64
	AdaptiveOverload bool
	AdaptiveBatches  int
	Replans          int
	GovernorShrinks  int
	MaxRelError      float64

	OracleSec      float64 // static schedule from unbiased training
	OracleOverload bool
}

// figureAdaptiveCases sweeps the calibration gap and the memory pressure:
// the first case overloads the static plan outright (the blind schedule
// thrashes past the 6000 s cutoff), the second keeps it nominally feasible
// but thrashing. fastTotal overrides total under Options.Fast; the first
// case keeps its workload because halving it doubles the extrapolation
// factor and pushes even the corrected plan past the cutoff.
var figureAdaptiveCases = []struct {
	bias      float64
	pressure  float64
	total     int
	fastTotal int
}{
	{bias: 0.7, pressure: 3.0, total: 300, fastTotal: 300},
	{bias: 0.8, pressure: 2.5, total: 400, fastTotal: 200},
}

// FigureAdaptive is the closed-loop extension study of the §5 tuner
// (DESIGN.md "Adaptive re-planning"): train BPPR on DBLP at the paper's
// light workloads 2^1..2^3 — but under a training deployment whose
// statistics extrapolation is TrainBias lighter than the evaluation run —
// then schedule a workload 100× the top training point. The mispriced
// static schedule S* executes blind; RunAdaptive executes the same plan
// under the closed loop, re-fitting the curves from measured peaks and
// re-planning the tail. An oracle trained without the gap bounds what a
// perfect open-loop fit could do.
func FigureAdaptive(o Options) ([]AdaptivePoint, error) {
	d, err := graph.Dataset("DBLP")
	if err != nil {
		return nil, err
	}
	g := d.Load()
	machines := 4
	part := graph.HashPartition(g.NumVertices(), machines)
	s := setting{
		dataset: "DBLP", cluster: sim.Galaxy8, machines: machines,
		system: sim.PregelPlus, task: BPPR, paperW: 4096, seed: o.seed(),
	}
	var points []AdaptivePoint
	for _, c := range figureAdaptiveCases {
		total := c.total
		if o.Fast {
			total = c.fastTotal
		}
		cfg := s.jobConfig(d, total)
		cfg.StatScale *= c.pressure
		trainCfg := cfg
		trainCfg.StatScale *= c.bias
		mk := func() tasks.Job {
			job, err := s.makeJob(g, part, total, o.seed()+17, o)
			if err != nil {
				panic(err)
			}
			return job
		}
		pt := AdaptivePoint{PaperW: s.paperW, TrainBias: c.bias, Pressure: c.pressure, Workload: total}

		// Open loop under the calibration gap: train light, schedule blind.
		model, err := core.Train(mk, trainCfg, core.TrainConfig{MaxExponent: 3, Seed: o.seed()})
		if err != nil {
			return nil, err
		}
		static, serr := model.Schedule(total)
		if errors.Is(serr, core.ErrDegraded) {
			pt.StaticDegraded = true
		} else if serr != nil {
			return nil, fmt.Errorf("experiments: adaptive case static schedule: %w", serr)
		}
		pt.StaticSchedule = static
		pt.Static, err = batch.Run(mk(), cfg, static, nil)
		if err != nil {
			return nil, err
		}

		// Closed loop: same mispriced model, but RunAdaptive measures every
		// batch and corrects the curves and the plan as it goes.
		loop := *model
		ares, err := loop.RunAdaptive(mk(), cfg, total, core.AdaptiveConfig{Seed: o.seed()})
		if err != nil {
			return nil, err
		}
		pt.AdaptiveSec = ares.Result.Seconds
		pt.AdaptiveOverload = ares.Result.Overload
		pt.AdaptiveBatches = len(ares.Executed)
		pt.Replans = ares.Replans
		pt.GovernorShrinks = ares.GovernorShrinks
		pt.MaxRelError = ares.MaxRelError()

		// Oracle: the open loop with an unbiased training deployment.
		oracle, err := core.Train(mk, cfg, core.TrainConfig{MaxExponent: 3, Seed: o.seed()})
		if err != nil {
			return nil, err
		}
		osched, oerr := oracle.Schedule(total)
		if oerr != nil && !errors.Is(oerr, core.ErrDegraded) {
			return nil, fmt.Errorf("experiments: adaptive case oracle schedule: %w", oerr)
		}
		ores, err := batch.Run(mk(), cfg, osched, nil)
		if err != nil {
			return nil, err
		}
		pt.OracleSec = ores.Seconds
		pt.OracleOverload = ores.Overload
		points = append(points, pt)
	}
	return points, nil
}
