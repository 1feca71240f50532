// Command vcserve is the multi-tenant graph service: it holds named
// read-only graph snapshots in memory (pregenerated graphgen binaries or
// generated on demand), accepts job submissions over HTTP/JSON, and runs
// them concurrently under the paper's §5 model-based admission control —
// each job's predicted peak memory is reserved against a shared per-machine
// budget, jobs that would overshoot queue FIFO or get their batch plan
// shrunk, and measured peaks feed back into the fitted curves.
//
// Usage:
//
//	vcserve -addr :8080 [-datasets DBLP,Orkut] [-graph-dir dumps/] \
//	        [-system Pregel+] [-cluster Galaxy-8] [-machines 8] \
//	        [-max-running 2] [-queue-cap 64] [-budget-gb 14] \
//	        [-train-exp 4] [-tolerance 0.15] [-seed 7] [-events log.jsonl]
//
// Endpoints: POST /v1/jobs, GET /v1/jobs[/{id}[/report|/trace]],
// GET /v1/graphs, /healthz and /metrics.json (the registry snapshot). A
// completed job's /report bytes are byte-identical to the equivalent
// one-shot `vcrun -report` against the same system/cluster/machines.
//
// Flag values the service cannot run with (a non-positive -max-running,
// -queue-cap or -tolerance, a negative -budget-gb or -machines, -train-exp
// below 3, an unknown system, cluster or dataset) are errors before any
// graph loads or the listener opens.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/serve"
	"vcmt/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vcserve: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vcserve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "HTTP listen address")
		datasets    = fs.String("datasets", "", "comma-separated dataset replicas to generate at startup (e.g. DBLP,Orkut)")
		graphDir    = fs.String("graph-dir", "", "directory of pregenerated <dataset>.bin graphgen dumps to load")
		systemName  = fs.String("system", "Pregel+", "VC-system profile shared by all jobs")
		clusterName = fs.String("cluster", "Galaxy-8", "cluster profile shared by all jobs")
		machines    = fs.Int("machines", 0, "override the cluster's machine count (0 = the profile's)")
		maxRunning  = fs.Int("max-running", 2, "max concurrently running jobs")
		queueCap    = fs.Int("queue-cap", 64, "admission queue capacity (full queue rejects)")
		budgetGB    = fs.Float64("budget-gb", 0, "admission memory budget per machine in GB (0 = cluster usable capacity p*M)")
		trainExp    = fs.Int("train-exp", 4, "admission-model training uses workloads 2^1..2^exp (>= 3)")
		tolerance   = fs.Float64("tolerance", 0.15, "prediction error that triggers a model re-fit from measured peaks")
		seed        = fs.Uint64("seed", 7, "random seed for training and re-fits")
		eventsPath  = fs.String("events", "", "append job-lifecycle events to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *maxRunning < 1:
		return fmt.Errorf("-max-running must be >= 1, got %d", *maxRunning)
	case *queueCap < 1:
		return fmt.Errorf("-queue-cap must be >= 1, got %d", *queueCap)
	case *budgetGB < 0:
		return fmt.Errorf("-budget-gb must be >= 0, got %g", *budgetGB)
	case *machines < 0:
		return fmt.Errorf("-machines must be >= 0, got %d", *machines)
	case *trainExp < 3:
		return fmt.Errorf("-train-exp must be >= 3 (the model fits workloads 2^1..2^exp), got %d", *trainExp)
	case !(*tolerance > 0):
		return fmt.Errorf("-tolerance must be > 0, got %g", *tolerance)
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
	var names []string
	for _, name := range strings.Split(*datasets, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if _, err := graph.Dataset(name); err != nil {
			return err
		}
		names = append(names, name)
	}

	cfg := serve.Config{
		Cluster:       cluster,
		System:        system,
		BudgetBytes:   *budgetGB * (1 << 30),
		MaxRunning:    *maxRunning,
		QueueCap:      *queueCap,
		TrainExponent: *trainExp,
		Tolerance:     *tolerance,
		Seed:          *seed,
		Registry:      obs.NewRegistry(),
		Store:         serve.NewStore(),
	}
	if *eventsPath != "" {
		events, err := os.OpenFile(*eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer events.Close()
		cfg.Events = events
	}

	if *graphDir != "" {
		n, err := cfg.Store.LoadDir(*graphDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded %d snapshot(s) from %s\n", n, *graphDir)
	}
	for _, name := range names {
		if err := cfg.Store.AddGenerated(name); err != nil {
			return err
		}
		fmt.Fprintf(w, "generated snapshot %s\n", name)
	}
	srv := serve.NewServer(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The server publishes the budget it resolved (the flag, or the
	// cluster's usable capacity when the flag is 0) as a gauge.
	budget := cfg.Registry.Gauge("serve_mem_budget_bytes").Value()
	fmt.Fprintf(w, "serving on http://%s (%s on %s, budget %.1f GB/machine, %d slots)\n",
		ln.Addr(), system.Name, cluster.Name, budget/(1<<30), *maxRunning)
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	return hs.Serve(ln)
}
