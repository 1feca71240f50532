package main

import (
	"bytes"
	"fmt"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/randx"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// jobSpec is one job of a pass: what `vcrun -task … -report` takes on its
// command line, plus the two inputs the benchmark generates itself (the
// source vertices) or switches on per workload (combining, out-of-core).
type jobSpec struct {
	Task     string
	Dataset  graph.DatasetSpec
	Workload int // walks per vertex for BPPR; len(Sources) otherwise
	Batches  int
	K        int
	Seed     uint64
	Workers  int // engine worker-pool size
	Sources  []graph.VertexID
	Combine  bool
	OOC      *tasks.OOCConfig
}

// jobOut is what one job leaves behind.
type jobOut struct {
	job     tasks.Job     // holds the task outputs the oracles check
	res     sim.JobResult // the cost model's verdict
	report  []byte        // exact run-report bytes
	msgs    int64         // logical vertex messages, from the report's supersteps
	batches int
}

// runJob is the in-process one-shot pipeline from a loaded graph to report
// bytes. It mirrors cmd/vcrun line for line (job construction, cost
// configuration, collector, batch loop, report) so that the bytes equal
// `vcrun -graph-file … -report` for the same inputs; the self-test holds it
// to that.
func runJob(g *graph.Graph, part *graph.Partition, js jobSpec, p *probe, parent obs.SpanID, track int) (jobOut, error) {
	d := js.Dataset
	jobSpan := p.begin(parent, track, "bench", "job")
	defer p.end(jobSpan)

	build := p.begin(jobSpan, track, "tasks", "build")
	var job tasks.Job
	var err error
	switch js.Task {
	case "MSSP":
		job, err = tasks.NewMSSP(g, part, tasks.MSSPConfig{
			Sources: js.Sources, Seed: js.Seed, Workers: js.Workers, OOC: js.OOC, Combine: js.Combine,
		})
	case "BKHS":
		job = tasks.NewBKHS(g, part, tasks.BKHSConfig{
			Sources: js.Sources, K: js.K, Seed: js.Seed, Workers: js.Workers, OOC: js.OOC, Combine: js.Combine,
		})
	case "BPPR":
		job = tasks.NewBPPR(g, part, tasks.BPPRConfig{
			WalksPerNode: js.Workload, Seed: js.Seed, Workers: js.Workers, OOC: js.OOC, Combine: js.Combine,
		})
	default:
		err = fmt.Errorf("unknown task %q", js.Task)
	}
	if err != nil {
		p.end(build)
		return jobOut{}, err
	}
	cfg := costConfig(d)
	cfg.Task = job.MemModel()
	collector := obs.NewCollector(obs.CollectorOptions{Registry: obs.NewRegistry()})
	cfg.Observer = collector
	var ro *roundObserver
	if p != nil {
		ro = &roundObserver{p: p, inner: collector, track: track}
		if p.keep {
			ro.job = &pricedJob{cfg: cfg}
			ro.job.cfg.Observer = nil
			p.priced = append(p.priced, ro.job)
		}
		cfg.Observer = ro
	}
	run := sim.NewRun(cfg)
	p.end(build)

	out := jobOut{job: job}
	for i, bw := range batch.Equal(job.TotalWorkload(), js.Batches) {
		if run.Overloaded() || bw <= 0 {
			continue
		}
		span := p.begin(jobSpan, track, "tasks", "batch")
		if ro != nil {
			ro.parent = span
		}
		run.BeginBatch()
		residual, err := job.RunBatch(run, bw, i)
		if err != nil {
			p.end(span)
			return jobOut{}, err
		}
		run.AddResidual(residual)
		p.end(span)
		out.batches++
	}

	enc := p.begin(jobSpan, track, "obs", "report-encode")
	out.res = run.Result()
	rep := collector.Report(obs.RunMeta{
		Task:      js.Task,
		Dataset:   d.Name,
		System:    cfg.System.Name,
		Cluster:   cfg.Cluster.Name,
		Machines:  cfg.Cluster.Machines,
		Workload:  job.TotalWorkload(),
		Batches:   js.Batches,
		Seed:      js.Seed,
		StatScale: d.ScaleNodes(),
	}, out.res)
	var buf bytes.Buffer
	err = rep.WriteJSON(&buf)
	p.end(enc)
	if err != nil {
		return jobOut{}, err
	}
	out.report = buf.Bytes()
	for _, s := range rep.Supersteps {
		out.msgs += int64(s.LogicalMsgs)
	}
	return out, nil
}

// costConfig is the cost configuration vcrun and vcserve price a dataset's
// jobs with by default: Pregel+ on Galaxy-8 at the dataset's node scale.
func costConfig(d graph.DatasetSpec) sim.JobConfig {
	cluster := sim.Galaxy8
	return sim.JobConfig{
		Cluster:              cluster,
		System:               sim.PregelPlus,
		StatScale:            d.ScaleNodes(),
		NodeScale:            d.ScaleNodes(),
		GraphBytesPerMachine: (float64(d.PaperNodes)*16 + float64(d.PaperEdges)*8) / float64(cluster.Machines),
	}
}

// loadDump is the first step of a one-shot run: a v3 dump on disk becomes a
// graph and a hash partition for the simulated cluster.
func loadDump(path string, d graph.DatasetSpec, p *probe, parent obs.SpanID, track int) (*graph.Graph, *graph.Partition, error) {
	span := p.begin(parent, track, "graph", "load")
	g, err := graph.LoadBinaryFile(path)
	p.end(span)
	if err != nil {
		return nil, nil, err
	}
	if g.NumVertices() != d.Nodes {
		return nil, nil, fmt.Errorf("%s: %d vertices, want %d", path, g.NumVertices(), d.Nodes)
	}
	span = p.begin(parent, track, "graph", "partition")
	part := graph.HashPartition(g.NumVertices(), sim.Galaxy8.Machines)
	p.end(span)
	return g, part, nil
}

// pickSources draws count distinct vertices of an n-vertex graph from rng.
func pickSources(rng *randx.RNG, n, count int) []graph.VertexID {
	seen := make(map[graph.VertexID]bool, count)
	out := make([]graph.VertexID, 0, count)
	for len(out) < count {
		v := graph.VertexID(rng.Intn(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// firstSources is the fixed source selection cmd/vcrun and internal/serve
// apply to a source count (both keep it unexported); the service twin and
// the parity self-test need the same vertices.
func firstSources(n, count int) []graph.VertexID {
	if count > n {
		count = n
	}
	seen := make(map[graph.VertexID]bool, count)
	out := make([]graph.VertexID, 0, count)
	for i := 0; len(out) < count; i++ {
		v := graph.VertexID(uint64(i) * 2654435761 % uint64(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
