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
// serves /metrics (Prometheus text), /metrics.json, /debug/trace and
// /debug/pprof while the job runs. Report, events and traces carry only
// simulated time, so identical seeded invocations produce byte-identical
// files.
package main

import (
	"flag"
	"fmt"
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
	var (
		taskName    = flag.String("task", "BPPR", "BPPR, MSSP or BKHS")
		datasetName = flag.String("dataset", "DBLP", "dataset replica (Table 1 name)")
		systemName  = flag.String("system", "Pregel+", "VC-system profile")
		clusterName = flag.String("cluster", "Galaxy-8", "cluster profile")
		machines    = flag.Int("machines", 0, "override the cluster's machine count")
		graphFile   = flag.String("graph-file", "", "load the dataset replica from this graphgen binary instead of generating it")
		workload    = flag.Int("workload", 64, "replica workload (walks per vertex / sources)")
		batches     = flag.Int("batches", 1, "number of equal batches (1 = Full-Parallelism)")
		khops       = flag.Int("k", 2, "hop radius for BKHS")
		scale       = flag.Float64("scale", 0, "stat extrapolation factor (0 = dataset node scale)")
		seed        = flag.Uint64("seed", 7, "random seed")
		workers     = flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS, 1 = sequential; results are identical for every value)")
		tracePath   = flag.String("trace", "", "write a per-round CSV trace to this file")
		machTrace   = flag.String("machine-trace", "", "write a per-round, per-machine CSV trace to this file")
		reportPath  = flag.String("report", "", "write a JSON run report to this file")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON span trace to this file (open in Perfetto)")
		eventsPath  = flag.String("events", "", "write a JSONL event log to this file")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /metrics.json and pprof on this address (e.g. :6060)")
		ckptDir     = flag.String("checkpoint-dir", "", "enable superstep checkpointing into this directory")
		ckptIval    = flag.Int("checkpoint-interval", 0, "checkpoint every N supersteps (0 = engine default)")
		faultSpec   = flag.String("fault-plan", "", `deterministic fault plan, e.g. "crash:worker=1,step=5" (see internal/fault; crashes need -checkpoint-dir)`)
		oocOn       = flag.Bool("ooc", false, "run supersteps out-of-core: stream partitioned edges and messages through a bounded memory window (results are bit-identical to in-memory)")
		oocBudget   = flag.Int64("ooc-budget", 64<<20, "out-of-core resident-window budget in bytes (derives the partition count)")
		oocParts    = flag.Int("ooc-partitions", 0, "fix the out-of-core partition count (0 = derive from -ooc-budget)")
		oocDir      = flag.String("ooc-dir", "", "out-of-core partition-file directory (empty = private temp dir per batch)")
	)
	flag.Parse()

	var fplan *fault.Plan
	if *faultSpec != "" {
		var err error
		fplan, err = fault.Parse(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
	}

	var (
		oocCfg   *tasks.OOCConfig
		oocStats *ooc.IOStats
	)
	if *oocOn {
		oocStats = &ooc.IOStats{}
		oocCfg = &tasks.OOCConfig{
			Dir:               *oocDir,
			MemoryBudgetBytes: *oocBudget,
			Partitions:        *oocParts,
			Stats:             oocStats,
		}
	}

	d, err := graph.Dataset(*datasetName)
	if err != nil {
		log.Fatal(err)
	}
	system, err := sim.SystemByName(*systemName)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := sim.ClusterByName(*clusterName)
	if err != nil {
		log.Fatal(err)
	}
	if *machines > 0 {
		cluster = cluster.WithMachines(*machines)
	}
	if *taskName == "BKHS" && *khops > tasks.MaxBKHSHops {
		log.Fatalf("-k %d exceeds the largest BKHS radius, %d", *khops, tasks.MaxBKHSHops)
	}
	if *graphFile != "" {
		// A bulk/mmap zero-copy load of a graphgen dump. The checksummed
		// loader rejects corrupt and retired-format dumps; PrimeDataset rejects
		// dumps of the wrong dataset. A primed cache makes d.Load() below
		// return the file's graph instead of regenerating.
		loaded, err := graph.LoadBinaryFile(*graphFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := graph.PrimeDataset(d.Name, loaded); err != nil {
			log.Fatal(err)
		}
	}
	g := d.Load()
	part := graph.HashPartition(g.NumVertices(), cluster.Machines)

	statScale := *scale
	if statScale == 0 {
		statScale = d.ScaleNodes()
	}
	cfg := sim.JobConfig{
		Cluster:              cluster,
		System:               system,
		StatScale:            statScale,
		NodeScale:            d.ScaleNodes(),
		GraphBytesPerMachine: d.PaperBytesPerMachine(cluster.Machines),
	}

	async := system.Async == sim.FullAsync
	if oocCfg != nil && async {
		log.Fatalf("-ooc requires a synchronous system profile; %s runs the asynchronous GAS executor", system.Name)
	}
	if oocCfg != nil && system.Mirror {
		log.Fatalf("-ooc is incompatible with the mirror profile %s (mirror spans assume a resident graph)", system.Name)
	}
	var job tasks.Job
	switch *taskName {
	case "BPPR":
		job = tasks.NewBPPR(g, part, tasks.BPPRConfig{
			WalksPerNode: *workload, Mirror: system.Mirror, Async: async, Seed: *seed,
			Workers:       *workers,
			CheckpointDir: *ckptDir, CheckpointInterval: *ckptIval, Fault: fplan,
			OOC: oocCfg,
		})
	case "MSSP":
		sources := tasks.FirstSources(g.NumVertices(), *workload)
		job, err = tasks.NewMSSP(g, part, tasks.MSSPConfig{
			Sources: sources, Mirror: system.Mirror, Async: async, Seed: *seed,
			Workers:       *workers,
			CheckpointDir: *ckptDir, CheckpointInterval: *ckptIval, Fault: fplan,
			OOC: oocCfg,
		})
		if err != nil {
			log.Fatal(err)
		}
	case "BKHS":
		sources := tasks.FirstSources(g.NumVertices(), *workload)
		job = tasks.NewBKHS(g, part, tasks.BKHSConfig{
			Sources: sources, K: *khops, Mirror: system.Mirror, Async: async, Seed: *seed,
			Workers:       *workers,
			CheckpointDir: *ckptDir, CheckpointInterval: *ckptIval, Fault: fplan,
			OOC: oocCfg,
		})
	default:
		log.Fatalf("unknown task %q", *taskName)
	}

	var trace *sim.Trace
	cfgTask := cfg
	cfgTask.Task = job.MemModel()

	// Telemetry: collector (registry + optional event log) and debug server.
	var (
		collector *obs.Collector
		eventsF   *os.File
		reportF   *os.File
		traceF    *os.File
		registry  *obs.Registry
		tracer    *obs.Tracer
	)
	if *reportPath != "" || *eventsPath != "" || *debugAddr != "" || *traceOut != "" {
		registry = obs.NewRegistry()
		copts := obs.CollectorOptions{Registry: registry}
		if *eventsPath != "" {
			eventsF, err = os.Create(*eventsPath)
			if err != nil {
				log.Fatal(err)
			}
			defer eventsF.Close()
			copts.Events = eventsF
		}
		// Open the report and trace files before the run so a bad path
		// fails fast instead of after minutes of simulation.
		if *reportPath != "" {
			reportF, err = os.Create(*reportPath)
			if err != nil {
				log.Fatal(err)
			}
			defer reportF.Close()
		}
		if *traceOut != "" {
			traceF, err = os.Create(*traceOut)
			if err != nil {
				log.Fatal(err)
			}
			defer traceF.Close()
			tracer = obs.NewTracer()
			copts.Tracer = tracer
		}
		collector = obs.NewCollector(copts)
		cfgTask.Observer = collector
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebugServerWith(*debugAddr, obs.DebugOptions{
			Registry: registry, Tracer: tracer,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("debug server on http://%s (/metrics, /metrics.json, /debug/pprof)", srv.Addr())
	}

	run := sim.NewRun(cfgTask)
	if *tracePath != "" || *machTrace != "" {
		trace = &sim.Trace{PerMachine: *machTrace != ""}
		run.SetTrace(trace)
	}
	sched := batch.Equal(job.TotalWorkload(), *batches)
	for i, bw := range sched {
		if run.Overloaded() || bw <= 0 {
			continue
		}
		run.BeginBatch()
		residual, err := job.RunBatch(run, bw, i)
		if err != nil {
			log.Fatal(err)
		}
		run.AddResidual(residual)
	}
	res := run.Result()

	w := os.Stdout
	fmt.Fprintf(w, "job:       %s on %s (%d vertices, %d arcs), %s, %s\n",
		*taskName, d.Name, g.NumVertices(), g.NumEdges(), system.Name, cluster.Name)
	fmt.Fprintf(w, "workload:  %d in %d batch(es), stat scale %.0fx\n", job.TotalWorkload(), *batches, statScale)
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
	if trace != nil && *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "trace:     %s (%d rounds)\n", *tracePath, len(trace.Rows))
	}
	if trace != nil && *machTrace != "" {
		f, err := os.Create(*machTrace)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.WriteMachineCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "mtrace:    %s (%d machine-rounds)\n", *machTrace, len(trace.MachineRows))
	}
	if collector != nil {
		rep := collector.Report(obs.RunMeta{
			Task:      *taskName,
			Dataset:   d.Name,
			System:    system.Name,
			Cluster:   cluster.Name,
			Machines:  cluster.Machines,
			Workload:  job.TotalWorkload(),
			Batches:   *batches,
			Seed:      *seed,
			StatScale: statScale,
		}, res)
		if reportF != nil {
			if err := rep.WriteJSON(reportF); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(w, "report:    %s (%d supersteps, %d machines)\n",
				*reportPath, len(rep.Supersteps), len(rep.Machines))
		}
		if err := collector.EventErr(); err != nil {
			log.Fatalf("event log: %v", err)
		}
		if *eventsPath != "" {
			fmt.Fprintf(w, "events:    %s\n", *eventsPath)
		}
		// Report ran Finish above, so every span (including the run root)
		// is closed by the time the trace is exported.
		if traceF != nil {
			if err := tracer.WriteChromeTrace(traceF); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(w, "spans:     %s (%d spans; open in Perfetto)\n", *traceOut, len(tracer.Spans()))
		}
	}
}
