package main

import "time"

// The run shape is fixed so that parent and change do identical work.
const (
	// pinnedProcs is both GOMAXPROCS and the engine worker-pool size.
	pinnedProcs = 2
	// setupReps is how often an untraced run sets up; setup_s is the median.
	setupReps = 3
	// pollEvery is the serve-closed client's job-state polling interval.
	pollEvery = 2 * time.Millisecond
)

// workloadDef names one workload and records why it exists; BENCHMARK.json
// carries the same text.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"mem-fewrounds", "in-memory engine, few heavy supersteps (MSSP+BKHS on LiveJournal): keyed combining, routing and delivery dominate; ooc, wire, rpcrt, ckpt and serve do no work"},
	{"mem-manyrounds", "same engine, ~160 light supersteps (BPPR on LiveJournal): per-superstep fixed cost (barrier, pool wake-up, pricing, collector) dominates, so a heavy-round win can lose here"},
	{"ooc-stream", "out-of-core backend under a 1 MiB window (MSSP+BKHS+BPPR on DBLP): partition-file codec and streaming do most of the work, the in-memory outbox almost none"},
	{"cluster-ckpt", "2-worker rpcrt cluster on loopback TCP with checkpoints every 4 supersteps: the only path through wire, net/rpc, rpcrt programs and ckpt; the engine does no work"},
	{"serve-closed", "closed loop of 2 clients against vcserve at MaxRunning=1 with small jobs: HTTP/JSON, admission, queue-and-promote, per-job registry and polling are a large share"},
}

// metricDef declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse. Exact marks a per-layer count
// that must repeat exactly for one (commit, workload, seed).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pass_wall_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mmsgs_per_s", Unit: "Mmsgs/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_pass", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer lists every per-layer metric, named <module>.<metric>. A traced
// run prints all of them; a layer the workload does not touch reports 0.
// Busy times are seconds per pass unless the name says otherwise.
var perLayer = []metricDef{
	{Name: "graph.generate_s", Unit: "s", Better: "lower"},
	{Name: "graph.write_s", Unit: "s", Better: "lower"},
	{Name: "graph.load_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "graph.load_s", Unit: "s", Better: "lower"},
	{Name: "graph.partition_s", Unit: "s", Better: "lower"},

	{Name: "tasks.build_s", Unit: "s", Better: "lower"},
	{Name: "tasks.batches", Unit: "count", Better: "lower", Exact: true},
	{Name: "tasks.run_batch_s", Unit: "s", Better: "lower"},

	{Name: "engine.supersteps", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.msgs_logical", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.msgs_physical", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.combined_at_send", Unit: "count", Better: "higher", Exact: true},
	{Name: "engine.active_vertices", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.physical_per_logical", Unit: "ratio", Better: "lower"},
	{Name: "engine.superstep_wall_s_p50", Unit: "s", Better: "lower"},
	{Name: "engine.superstep_wall_s_max", Unit: "s", Better: "lower"},
	{Name: "engine.first_superstep_s", Unit: "s", Better: "lower"},
	{Name: "engine.ns_per_msg", Unit: "ns/msg", Better: "lower"},

	{Name: "sim.price_s", Unit: "s", Better: "lower"},
	{Name: "sim.seconds", Unit: "s", Better: "lower", Exact: true},
	{Name: "sim.peak_mem_bytes", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "obs.collect_s", Unit: "s", Better: "lower"},
	{Name: "obs.report_encode_s", Unit: "s", Better: "lower"},
	{Name: "obs.report_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "obs.trace_export_s", Unit: "s", Better: "lower"},
	{Name: "obs.spans", Unit: "count", Better: "lower", Exact: true},

	{Name: "ooc.read_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "ooc.write_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "ooc.window_peak_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "ooc.window_over_budget_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "ooc.io_s", Unit: "s", Better: "lower"},
	{Name: "ooc.io_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ooc.bytes_per_msg", Unit: "bytes/msg", Better: "lower"},
	{Name: "ooc.per_superstep_s", Unit: "s", Better: "lower"},
	{Name: "ooc.slowdown_vs_mem", Unit: "ratio", Better: "lower"},

	{Name: "rpcrt.start_s", Unit: "s", Better: "lower"},
	{Name: "rpcrt.mssp_wall_s", Unit: "s", Better: "lower"},
	{Name: "rpcrt.bkhs_wall_s", Unit: "s", Better: "lower"},
	{Name: "rpcrt.bppr_wall_s", Unit: "s", Better: "lower"},
	{Name: "rpcrt.ns_per_msg", Unit: "ns/msg", Better: "lower"},
	{Name: "rpcrt.supersteps", Unit: "count", Better: "lower", Exact: true},
	{Name: "rpcrt.msgs_sent", Unit: "count", Better: "lower", Exact: true},
	{Name: "rpcrt.msgs_recv", Unit: "count", Better: "lower", Exact: true},
	{Name: "rpcrt.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "rpcrt.compute_s", Unit: "s", Better: "lower"},
	{Name: "rpcrt.recv_s", Unit: "s", Better: "lower"},
	{Name: "rpcrt.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "rpcrt.barrier_wait_s", Unit: "s", Better: "lower"},

	{Name: "wire.bytes_sent", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "wire.frames_sent", Unit: "count", Better: "lower", Exact: true},
	{Name: "wire.bytes_per_msg", Unit: "bytes/msg", Better: "lower"},
	{Name: "wire.codec_s_est", Unit: "s", Better: "lower"},

	{Name: "ckpt.written", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "ckpt.load_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.cost_s", Unit: "s", Better: "lower"},

	{Name: "core.train_s", Unit: "s", Better: "lower"},
	{Name: "core.schedule_s", Unit: "s", Better: "lower"},

	{Name: "serve.job_wall_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.job_wall_s_p95", Unit: "s", Better: "lower"},
	{Name: "serve.submit_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.queue_wait_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.report_fetch_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.poll_requests", Unit: "1/job", Better: "lower"},
	{Name: "serve.jobs_admitted", Unit: "1/job", Better: "higher"},
	{Name: "serve.jobs_queued", Unit: "1/job", Better: "lower"},
	{Name: "serve.jobs_rejected", Unit: "1/job", Better: "lower"},
	{Name: "serve.jobs_shrunk", Unit: "1/job", Better: "lower"},
	{Name: "serve.models_trained", Unit: "count", Better: "lower"},
	{Name: "serve.model_refits", Unit: "count", Better: "lower"},
	{Name: "serve.overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "process.gc_cycles", Unit: "1/pass", Better: "lower"},
	{Name: "process.gc_pause_s", Unit: "s", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_ratio", Unit: "ratio", Better: "lower"},
}
