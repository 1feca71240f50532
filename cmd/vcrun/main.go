// Command vcrun executes one multi-processing job on a simulated cluster
// and reports the cost model's verdict: simulated time, rounds, message
// statistics, memory, disk and network behaviour.
//
// Usage:
//
//	vcrun -task BPPR -dataset DBLP -system Pregel+ -cluster Galaxy-8 \
//	      -workload 160 -batches 4 [-machines 8] [-scale 4096] [-seed 7]
//
// The workload is in replica units (walks per vertex for BPPR; source
// count for MSSP/BKHS). -scale extrapolates the measured statistics before
// costing; the default uses the dataset's node-scale factor.
//
// Telemetry flags: -report writes a machine-readable JSON run report,
// -events a JSONL event log, -trace / -machine-trace per-round CSVs,
// -trace-out a Chrome trace-event JSON span file (load it in Perfetto:
// run → batch → superstep → per-machine phase spans, with checkpoint,
// crash and recovery spans when faults are injected), and -debug-addr
// serves /metrics.json, /debug/trace and /debug/pprof while the job runs.
// Report, events and traces carry only simulated time, so identical seeded
// invocations produce byte-identical files.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vcmt/internal/batch"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/ooc"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vcrun: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// create opens path for writing, or returns nil for an empty path.
func create(path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	return os.Create(path)
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vcrun", flag.ContinueOnError)
	var (
		taskName    = fs.String("task", "BPPR", "BPPR, MSSP or BKHS")
		datasetName = fs.String("dataset", "DBLP", "dataset replica (Table 1 name)")
		systemName  = fs.String("system", "Pregel+", "VC-system profile")
		clusterName = fs.String("cluster", "Galaxy-8", "cluster profile")
		machines    = fs.Int("machines", 0, "override the cluster's machine count")
		graphFile   = fs.String("graph-file", "", "load the dataset replica from this graphgen binary instead of generating it")
		workload    = fs.Int("workload", 64, "replica workload (walks per vertex / sources)")
		batches     = fs.Int("batches", 1, "number of equal batches (1 = Full-Parallelism)")
		khops       = fs.Int("k", 2, "hop radius for BKHS")
		scale       = fs.Float64("scale", 0, "stat extrapolation factor (0 = dataset node scale)")
		seed        = fs.Uint64("seed", 7, "random seed")
		workers     = fs.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS, 1 = sequential; results are identical for every value)")
		tracePath   = fs.String("trace", "", "write a per-round CSV trace to this file")
		machTrace   = fs.String("machine-trace", "", "write a per-round, per-machine CSV trace to this file")
		reportPath  = fs.String("report", "", "write a JSON run report to this file")
		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON span trace to this file (open in Perfetto)")
		eventsPath  = fs.String("events", "", "write a JSONL event log to this file")
		debugAddr   = fs.String("debug-addr", "", "serve /metrics.json, /debug/trace and pprof on this address (e.g. :6060)")
		ckptDir     = fs.String("checkpoint-dir", "", "enable superstep checkpointing into this directory")
		ckptIval    = fs.Int("checkpoint-interval", 0, "checkpoint every N supersteps (0 = engine default)")
		faultSpec   = fs.String("fault-plan", "", `deterministic fault plan, e.g. "crash:worker=1,step=5" (see internal/fault; crashes need -checkpoint-dir)`)
		oocOn       = fs.Bool("ooc", false, "run supersteps out-of-core: stream partitioned edges and messages through a bounded memory window (results are bit-identical to in-memory)")
		oocBudget   = fs.Int64("ooc-budget", 64<<20, "out-of-core resident-window budget in bytes (derives the partition count)")
		oocParts    = fs.Int("ooc-partitions", 0, "fix the out-of-core partition count (0 = derive from -ooc-budget)")
		oocDir      = fs.String("ooc-dir", "", "out-of-core partition-file directory (empty = private temp dir per batch)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tasks.Validate(*taskName, *workload, *batches, *khops); err != nil {
		return err
	}
	spec := tasks.Spec{
		Task: *taskName, Workload: *workload, K: *khops, Seed: *seed, Workers: *workers,
		CheckpointDir: *ckptDir, CheckpointInterval: *ckptIval,
	}
	if *faultSpec != "" {
		var err error
		if spec.Fault, err = fault.Parse(*faultSpec); err != nil {
			return err
		}
	}
	var oocStats *ooc.IOStats
	if *oocOn {
		oocStats = &ooc.IOStats{}
		spec.OOC = &tasks.OOCConfig{
			Dir:               *oocDir,
			MemoryBudgetBytes: *oocBudget,
			Partitions:        *oocParts,
			Stats:             oocStats,
		}
	}

	d, err := graph.Dataset(*datasetName)
	if err != nil {
		return err
	}
	system, err := sim.SystemByName(*systemName)
	if err != nil {
		return err
	}
	cluster, err := sim.ClusterByName(*clusterName)
	if err != nil {
		return err
	}
	if *machines > 0 {
		cluster = cluster.WithMachines(*machines)
	}
	if *oocOn && system.Async == sim.FullAsync {
		return fmt.Errorf("-ooc requires a synchronous system profile; %s runs the asynchronous GAS executor", system.Name)
	}
	if *oocOn && system.Mirror {
		return fmt.Errorf("-ooc is incompatible with the mirror profile %s (mirror spans assume a resident graph)", system.Name)
	}

	// Open every output before the run so a bad path fails fast instead of
	// after minutes of simulation.
	var files [5]*os.File
	for i, path := range []string{*eventsPath, *reportPath, *traceOut, *tracePath, *machTrace} {
		if files[i], err = create(path); err != nil {
			return err
		}
		if files[i] != nil {
			defer files[i].Close()
		}
	}
	eventsF, reportF, spansF, traceF, machF := files[0], files[1], files[2], files[3], files[4]

	if *graphFile != "" {
		// A bulk/mmap zero-copy load of a graphgen dump. The checksummed
		// loader rejects corrupt and retired-format dumps; PrimeDataset rejects
		// dumps of the wrong dataset. A primed cache makes d.Load() below
		// return the file's graph instead of regenerating.
		loaded, err := graph.LoadBinaryFile(*graphFile)
		if err != nil {
			return err
		}
		if err := graph.PrimeDataset(d.Name, loaded); err != nil {
			return err
		}
	}
	g := d.Load()
	part := graph.HashPartition(g.NumVertices(), cluster.Machines)
	job, err := tasks.Build(g, part, system, spec)
	if err != nil {
		return err
	}
	cfg := tasks.CostConfig(d, cluster, system, *scale)

	// Telemetry: the collector is the run's one per-round hook; the report,
	// event log, span trace and both CSV traces are written from it.
	var copts obs.CollectorOptions
	if eventsF != nil {
		copts.Events = eventsF
	}
	var tracer *obs.Tracer
	if spansF != nil {
		tracer = obs.NewTracer()
		copts.Tracer = tracer
	}
	collector := obs.NewCollector(copts)
	cfg.Observer = collector
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, obs.DebugOptions{
			Registry: collector.Registry(), Tracer: tracer,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("debug server on http://%s (/metrics.json, /debug/trace, /debug/pprof)", srv.Addr())
	}

	res, err := batch.Run(job, cfg, batch.Equal(job.TotalWorkload(), *batches), nil)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "job:       %s on %s (%d vertices, %d arcs), %s, %s\n",
		*taskName, d.Name, g.NumVertices(), g.NumEdges(), system.Name, cluster.Name)
	fmt.Fprintf(w, "workload:  %d in %d batch(es), stat scale %.0fx\n", job.TotalWorkload(), *batches, cfg.StatScale)
	status := fmt.Sprintf("%.1f s", res.Seconds)
	if res.Overflow {
		status = "OVERFLOW (memory beyond physical + swap headroom)"
	} else if res.Overload {
		status = fmt.Sprintf("OVERLOAD (> %d s cutoff; simulated %.0f s)", int(sim.DefaultCutoffSeconds), res.Seconds)
	}
	fmt.Fprintf(w, "time:      %s\n", status)
	fmt.Fprintf(w, "rounds:    %d (avg %.2fM msgs/round, peak %.2fM)\n",
		res.Rounds, res.AvgMsgsPerRound/1e6, res.MaxMsgsPerRound/1e6)
	fmt.Fprintf(w, "memory:    peak %.2f GB/machine (%.0f%% of usable)\n",
		res.PeakMemBytes/(1<<30), res.MaxMemRatio*100)
	fmt.Fprintf(w, "network:   %.2f GB total, %.1f s overuse\n",
		res.WireBytesTotal/(1<<30), res.NetOveruseSec)
	if res.CheckpointsWritten > 0 || res.Recoveries > 0 {
		fmt.Fprintf(w, "ckpt:      %d written (%.2f MB, %.1f s); %d recoveries, %d rounds lost, %.1f s recovering\n",
			res.CheckpointsWritten, float64(res.CheckpointBytes)/(1<<20), res.CheckpointSeconds,
			res.Recoveries, res.RoundsLost, res.RecoverySeconds)
	}
	if n := spec.Fault.Remaining(); n > 0 {
		// A crash planned past the job's last superstep never fires: say so
		// rather than let "0 recoveries" pass for a tested recovery.
		fmt.Fprintf(w, "fault:     %d planned event(s) never fired (%s)\n", n, spec.Fault)
	}
	if system.OutOfCore {
		fmt.Fprintf(w, "disk:      %.1f s IO, max util %.0f%%, %.1f s overuse, queue %.0f\n",
			res.DiskSeconds, res.MaxDiskUtil*100, res.IOOveruseSec, res.MaxIOQueueLen)
	}
	if oocStats != nil {
		// key=value so scripts can assert the memory-window invariant
		// (window_peak <= budget) and the spill volume (wrote >= N*budget).
		fmt.Fprintf(w, "ooc:       read=%d wrote=%d window_peak=%d budget=%d",
			res.OOCReadBytes, res.OOCWriteBytes, res.OOCWindowPeakBytes, *oocBudget)
		if bw := oocStats.BytesPerSec(); bw > 0 {
			fmt.Fprintf(w, " measured_disk=%.1fMB/s", bw/1e6)
		}
		fmt.Fprintln(w)
	}
	if cluster.Cloud {
		mark := ""
		if res.CreditsLowerBound {
			mark = ">"
		}
		fmt.Fprintf(w, "credits:   %s$%.2f\n", mark, res.Credits)
	}
	if traceF != nil {
		n, err := collector.WriteRoundCSV(traceF, cfg.StatScale)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trace:     %s (%d rounds)\n", *tracePath, n)
	}
	if machF != nil {
		n, err := collector.WriteMachineCSV(machF)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "mtrace:    %s (%d machine-rounds)\n", *machTrace, n)
	}
	rep := collector.Report(obs.RunMeta{
		Task:      *taskName,
		Dataset:   d.Name,
		System:    system.Name,
		Cluster:   cluster.Name,
		Machines:  cluster.Machines,
		Workload:  job.TotalWorkload(),
		Batches:   *batches,
		Seed:      *seed,
		StatScale: cfg.StatScale,
	}, res)
	if reportF != nil {
		if err := rep.WriteJSON(reportF); err != nil {
			return err
		}
		fmt.Fprintf(w, "report:    %s (%d supersteps, %d machines)\n",
			*reportPath, len(rep.Supersteps), len(rep.Machines))
	}
	if err := collector.EventErr(); err != nil {
		return fmt.Errorf("event log: %w", err)
	}
	if eventsF != nil {
		fmt.Fprintf(w, "events:    %s\n", *eventsPath)
	}
	// Report ran Finish above, so every span (including the run root) is
	// closed by the time the trace is exported.
	if spansF != nil {
		if err := tracer.WriteChromeTrace(spansF); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans:     %s (%d spans; open in Perfetto)\n", *traceOut, len(tracer.Spans()))
	}
	for _, f := range files {
		if f != nil {
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
