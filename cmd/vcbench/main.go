// Command vcbench runs the full experiment suite — every table and figure
// of the paper's evaluation, then the extensions and ablations — and
// prints paper-style text tables.
//
// Usage:
//
//	vcbench [-fast] [-seed N] [-only fig2,fig4,table3,...] [-out dir] \
//	        [-trace-out trace.json]
//
// Experiment names: fig2 fig3 fig4 fig6 table2 table3 fig5 fig7 fig8 fig9
// fig11 fig10 table4 fig12 recovery finer adaptive scaleup ablations.
// Without -only, everything runs in that order; an unknown name is an
// error and runs nothing.
//
// -trace-out writes the suite's wall-clock timeline (one span per
// experiment under a suite root, carrying the table's output bytes and any
// error) as Chrome trace-event JSON for Perfetto. Unlike the tables it is
// not byte-stable across runs.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"vcmt/internal/experiments"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/tasks"
)

// experiment is one row of the suite: a name for -only and -out, and a
// function that runs the experiment and prints its table.
type experiment struct {
	name string
	run  func(experiments.Options, io.Writer) error
}

// step pairs an experiment runner with the writer that prints its result.
func step[T any](name string, runner func(experiments.Options) (T, error), write func(io.Writer, T)) experiment {
	return experiment{name, func(o experiments.Options, w io.Writer) error {
		res, err := runner(o)
		if err != nil {
			return err
		}
		write(w, res)
		return nil
	}}
}

// suite lists every experiment in paper order, followed by the extensions.
var suite = []experiment{
	step("fig2", experiments.Figure2, experiments.WriteFigure),
	step("fig3", experiments.Figure3, experiments.WriteFigure),
	step("fig4", experiments.Figure4, experiments.WriteFigure),
	step("fig6", experiments.Figure6, experiments.WriteFigure6),
	step("table2", experiments.Table2, experiments.WriteTable2),
	step("table3", experiments.Table3, experiments.WriteTable3),
	step("fig5", experiments.Figure5, experiments.WriteFigure),
	step("fig7", experiments.Figure7, experiments.WriteFigure),
	step("fig8", experiments.Figure8, experiments.WriteFigure),
	step("fig9", experiments.Figure9, experiments.WriteFigure9),
	step("fig11", experiments.Figure11, experiments.WriteFigure11),
	step("fig10", experiments.Figure10, experiments.WriteFigure),
	step("table4", experiments.Table4, experiments.WriteTable4),
	step("fig12", experiments.Figure12, experiments.WriteFigure12),
	step("recovery", experiments.FigureRecovery, experiments.WriteRecovery),
	step("finer", experiments.FinerBatches, func(w io.Writer, ser experiments.Series) {
		experiments.WriteFigure(w, experiments.Figure{
			ID:     "Additional materials",
			Title:  "finer-granularity batch sweep (BPPR 12288, Galaxy-8)",
			Series: []experiments.Series{ser},
		})
	}),
	step("adaptive", experiments.FigureAdaptive, experiments.WriteFigureAdaptive),
	// §4.9 at the Full-Parallelism BPPR workload that overloads Galaxy-8.
	step("scaleup", func(o experiments.Options) (experiments.ScaleUpResult, error) {
		return experiments.ScaleUpVsScaleOut(o, 12288)
	}, experiments.WriteScaleUp),
	step("ablations", ablations, experiments.WriteAblations),
}

// ablations runs the four design-choice ablations for one table.
func ablations(o experiments.Options) ([]experiments.AblationResult, error) {
	var results []experiments.AblationResult
	for _, ablate := range []func(experiments.Options) (experiments.AblationResult, error){
		experiments.AblationMirroring,
		experiments.AblationCombining,
		experiments.AblationOutOfCore,
		experiments.AblationUnequalBatching,
	} {
		res, err := ablate(o)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vcbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// selectExperiments returns the suite rows named in the comma-separated
// list, in suite order; an empty list selects every row.
func selectExperiments(only string) ([]experiment, error) {
	if only == "" {
		return suite, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var selected []experiment
	var names []string
	for _, e := range suite {
		names = append(names, e.name)
		if want[e.name] {
			selected = append(selected, e)
			delete(want, e.name)
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("unknown experiment %q in -only (valid: %s)",
			slices.Sorted(maps.Keys(want)), strings.Join(names, " "))
	}
	return selected, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vcbench", flag.ContinueOnError)
	var (
		fast      = fs.Bool("fast", false, "use reduced replica workloads (noisier, much quicker)")
		seed      = fs.Uint64("seed", 0, "experiment seed (0 = default)")
		workers   = fs.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS, 1 = sequential; results are identical for every value)")
		only      = fs.String("only", "", "comma-separated subset of experiments to run")
		graphDir  = fs.String("graph-dir", "", "load pregenerated <dataset>.bin graphgen dumps from this directory instead of generating replicas")
		outDir    = fs.String("out", "", "also write each experiment's table to <dir>/<name>.txt")
		traceOut  = fs.String("trace-out", "", "write a Chrome trace-event JSON span timeline of the suite to this file")
		oocOn     = fs.Bool("ooc", false, "run every synchronous job through the partitioned out-of-core backend (task results are bit-identical; GraphD rows price disk from measured partition-file IO)")
		oocBudget = fs.Int64("ooc-budget", 64<<20, "out-of-core resident-window budget in bytes")
		oocParts  = fs.Int("ooc-partitions", 0, "fix the out-of-core partition count (0 = derive from -ooc-budget)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := selectExperiments(*only)
	if err != nil {
		return err
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	if *graphDir != "" {
		names, err := graph.PrimeDir(*graphDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "[primed %d dataset replica(s) from %s]\n\n", len(names), *graphDir)
	}

	o := experiments.Options{Fast: *fast, Seed: *seed, Workers: *workers}
	if *oocOn {
		o.OOC = &tasks.OOCConfig{MemoryBudgetBytes: *oocBudget, Partitions: *oocParts}
	}
	// A nil tracer makes every span call a no-op.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		tracer.NameProc(0, "vcbench")
		tracer.NameTrack(0, 0, "experiments")
	}
	root := tracer.Begin(0, "suite", "bench", 0, 0)
	for _, e := range selected {
		if err = runExperiment(e, o, stdout, *outDir, tracer, root); err != nil {
			break
		}
	}
	tracer.End(root)
	if tracer != nil {
		var trace bytes.Buffer
		terr := tracer.WriteChromeTrace(&trace)
		if terr == nil {
			terr = os.WriteFile(*traceOut, trace.Bytes(), 0o644)
		}
		err = errors.Join(err, terr)
	}
	return err
}

// runExperiment runs one experiment, prints its table to stdout and, with
// an out directory, to <dir>/<name>.txt, under one span of the suite.
func runExperiment(e experiment, o experiments.Options, stdout io.Writer, outDir string, tracer *obs.Tracer, root obs.SpanID) error {
	span := tracer.Begin(root, e.name, "experiment", 0, 0)
	start := time.Now()
	var table bytes.Buffer
	err := e.run(o, &table)
	if err == nil {
		_, err = stdout.Write(table.Bytes())
	}
	if err == nil && outDir != "" {
		err = os.WriteFile(filepath.Join(outDir, e.name+".txt"), table.Bytes(), 0o644)
	}
	args := []obs.Label{obs.L("bytes", strconv.Itoa(table.Len()))}
	if err != nil {
		args = append(args, obs.L("error", err.Error()))
	}
	tracer.End(span, args...)
	if err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	fmt.Fprintf(stdout, "[%s done in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	return nil
}
