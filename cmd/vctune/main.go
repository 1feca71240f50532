// Command vctune runs the paper's Section-5 tuning framework: it trains
// the memory model on light powers-of-two workloads, fits M*(W) and
// M_r*(W) by Levenberg–Marquardt, prints the fitted parameters and the
// optimized batch schedule for the requested workload, and (optionally)
// evaluates the schedule against Full-Parallelism.
//
// With -adaptive the evaluation runs under the closed-loop tuner
// (core.RunAdaptive): after every batch the measured peak memory is
// compared against the model's prediction, the curves are re-fitted and
// the remaining schedule re-planned when the error exceeds -tolerance,
// and a safety governor shrinks any batch predicted to cross the memory
// budget on top of the measured residual. -report writes the
// machine-readable run report (including the adaptive section) to a file.
//
// Usage:
//
//	vctune -task BPPR -dataset DBLP -machines 4 -workload 96 \
//	       [-scale 4500] [-exp 5] [-evaluate] [-adaptive] \
//	       [-tolerance 0.15] [-report report.json]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"vcmt/internal/batch"
	"vcmt/internal/core"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// pct expresses a residual as a percentage of the measured value.
func pct(delta, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return 100 * delta / measured
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vctune: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vctune", flag.ContinueOnError)
	var (
		taskName    = fs.String("task", "BPPR", "BPPR, MSSP or BKHS")
		datasetName = fs.String("dataset", "DBLP", "dataset replica (Table 1 name)")
		machines    = fs.Int("machines", 4, "machine count (Galaxy profile)")
		workload    = fs.Int("workload", 96, "total replica workload to schedule")
		scale       = fs.Float64("scale", 4500, "stat extrapolation factor")
		maxExp      = fs.Int("exp", 5, "training uses workloads 2^1..2^exp")
		evaluate    = fs.Bool("evaluate", false, "also run Optimized vs Full-Parallelism")
		adaptive    = fs.Bool("adaptive", false, "evaluate under the closed-loop tuner (re-fit + re-plan)")
		tolerance   = fs.Float64("tolerance", 0.15, "adaptive: relative prediction error that triggers a re-plan")
		reportPath  = fs.String("report", "", "write the JSON run report to this file")
		seed        = fs.Uint64("seed", 3, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tasks.Validate(*taskName, *workload, 1, 2); err != nil {
		return err
	}
	if *machines < 1 {
		return fmt.Errorf("machines must be >= 1, got %d", *machines)
	}

	d, err := graph.Dataset(*datasetName)
	if err != nil {
		return err
	}
	g := d.Load()
	part := graph.HashPartition(g.NumVertices(), *machines)
	cfg := tasks.CostConfig(d, sim.Galaxy8.WithMachines(*machines), sim.PregelPlus, *scale)
	mk, err := core.TrainingJobs(g, part, sim.PregelPlus, *taskName, 0, *seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "training %s on %s, %d machines (workloads 2^1..2^%d)...\n",
		*taskName, d.Name, *machines, *maxExp)
	model, err := core.Train(mk, cfg, core.TrainConfig{MaxExponent: *maxExp, Seed: *seed})
	if err != nil {
		return err
	}
	for _, p := range model.Points {
		fmt.Fprintf(out, "  W=%-4.0f M*=%7.2f GB   Mr*=%7.2f GB\n",
			p.Workload, p.MaxMemBytes/(1<<30), p.MaxResidualBytes/(1<<30))
	}
	fmt.Fprintf(out, "M*(W)  = %.4g * W^%.4f + %.4g\n", model.Mem.A, model.Mem.B, model.Mem.C)
	fmt.Fprintf(out, "Mr*(W) = %.4g * W^%.4f + %.4g\n", model.Resid.A, model.Resid.B, model.Resid.C)
	fmt.Fprintf(out, "budget: p=%.3f of %.0f GB physical memory\n\n",
		model.P, model.MachineMemBytes/(1<<30))

	// Fit quality: per-point residuals (measured − fitted) and RMS, the
	// telemetry that shows whether the LMA fit can be trusted before the
	// schedule built on it is.
	fmt.Fprintf(out, "fit residuals (measured - fitted):\n")
	var sqMem, sqResid float64
	for _, p := range model.Points {
		dm := p.MaxMemBytes - model.Mem.Eval(p.Workload)
		dr := p.MaxResidualBytes - model.Resid.Eval(p.Workload)
		sqMem += dm * dm
		sqResid += dr * dr
		fmt.Fprintf(out, "  W=%-4.0f dM*=%+9.4f GB (%+.2f%%)   dMr*=%+9.4f GB (%+.2f%%)\n",
			p.Workload, dm/(1<<30), pct(dm, p.MaxMemBytes), dr/(1<<30), pct(dr, p.MaxResidualBytes))
	}
	n := float64(len(model.Points))
	fmt.Fprintf(out, "  RMS:   M* %.4f GB, Mr* %.4f GB\n\n",
		math.Sqrt(sqMem/n)/(1<<30), math.Sqrt(sqResid/n)/(1<<30))

	sched, err := model.Schedule(*workload)
	if errors.Is(err, core.ErrDegraded) {
		fmt.Fprintf(out, "WARNING: schedule degraded — tail batches run at minimum granularity and are predicted to overload\n")
	} else if err != nil {
		return err
	}
	fmt.Fprintf(out, "optimized schedule for workload %d: %v (%d batches)\n",
		*workload, []int(sched), sched.Batches())

	if !*evaluate && !*adaptive && *reportPath == "" {
		return nil
	}

	col := obs.NewCollector(obs.CollectorOptions{})
	evalCfg := cfg
	evalCfg.Observer = col
	var result sim.JobResult
	batches := sched.Batches()
	if *adaptive {
		ares, err := model.RunAdaptive(mk(), evalCfg, *workload, core.AdaptiveConfig{
			Tolerance: *tolerance, Seed: *seed, Observer: col,
		})
		if err != nil {
			return err
		}
		result = ares.Result
		batches = len(ares.Executed)
		fmt.Fprintf(out, "\nadaptive run: %.0f s over %d batches (%d re-plans, %d governor shrinks, max prediction error %.1f%%)\n",
			result.Seconds, len(ares.Executed), ares.Replans, ares.GovernorShrinks, 100*ares.MaxRelError())
		fmt.Fprintf(out, "executed schedule: %v\n", []int(ares.Executed))
		if ares.Degraded {
			fmt.Fprintf(out, "WARNING: adaptive plan degraded to minimum-granularity batches at some point\n")
		}
		for _, p := range ares.Predictions {
			fmt.Fprintf(out, "  batch %-3d W=%-4d predicted %6.2f GB  measured %6.2f GB  err %5.1f%%\n",
				p.Batch, p.Workload, p.PredictedBytes/(1<<30), p.MeasuredBytes/(1<<30), 100*p.RelError)
		}
	} else {
		opt, err := batch.Run(mk(), evalCfg, sched, nil)
		if err != nil {
			return err
		}
		result = opt
	}

	if *evaluate {
		full, err := batch.Run(mk(), cfg, batch.Single(*workload), nil)
		if err != nil {
			return err
		}
		fullCell := fmt.Sprintf("%.0f s", full.Seconds)
		if full.Overload {
			fullCell = "overload"
		}
		label := "Optimized"
		if *adaptive {
			label = "Adaptive"
		}
		fmt.Fprintf(out, "\nFull-Parallelism: %s\n%s:         %.0f s\n", fullCell, label, result.Seconds)
	}

	if *reportPath != "" {
		rep := col.Report(obs.RunMeta{
			Task:      *taskName,
			Dataset:   d.Name,
			System:    "Pregel+",
			Cluster:   "Galaxy-8",
			Machines:  *machines,
			Workload:  *workload,
			Batches:   batches,
			Seed:      *seed,
			StatScale: cfg.StatScale,
		}, result)
		f, err := os.Create(*reportPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nrun report written to %s\n", *reportPath)
	}
	return nil
}
