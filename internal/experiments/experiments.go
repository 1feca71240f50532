// Package experiments reproduces every table and figure of the paper's
// evaluation (§4–§5). Each runner executes the real vertex-centric tasks
// on scaled dataset replicas over the simulated clusters, extrapolates the
// measured statistics to paper scale, and emits the same rows/series the
// paper reports. DESIGN.md carries the per-experiment index; EXPERIMENTS.md
// records paper-vs-measured values.
//
// Workload scaling: BPPR walk workloads are divided by 64 and MSSP/BKHS
// source workloads by 64 (floors keep batching meaningful), except the
// mirror variant of BPPR, whose fractional-push message volume is not
// linear in W — it runs at the paper workload and extrapolates only by
// graph scale. The extrapolation factor StatScale restores each series to
// its paper-scale message volume, so capacities (16 GB machines) and the
// 6000 s cutoff apply unchanged.
package experiments

import (
	"fmt"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/randx"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// TaskKind names a benchmark multi-processing task.
type TaskKind string

// The three benchmark tasks of §2.3.
const (
	BPPR TaskKind = "BPPR"
	MSSP TaskKind = "MSSP"
	BKHS TaskKind = "BKHS"
)

// Options tunes an experiment run.
type Options struct {
	// Fast divides replica workloads by 4 (with sane floors); statistics
	// are re-extrapolated so results stay at paper scale, only noisier.
	// Used by vcbench -fast and the shape tests to keep runs quick.
	Fast bool
	// Seed drives all randomness.
	Seed uint64
	// Workers sets the BSP engine's worker-pool size for every job (see
	// engine.Options.Workers: 0 = GOMAXPROCS, 1 = sequential). Results are
	// identical for every value; only wall-clock time changes.
	Workers int
	// OOC routes every synchronous engine job through the partitioned
	// out-of-core backend (tasks.OOCConfig). Task results are bit-identical;
	// out-of-core system profiles (GraphD) price their disk phase from the
	// measured partition-file traffic instead of the stream-fraction
	// estimate. Ignored by asynchronous (GAS) settings.
	OOC *tasks.OOCConfig
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 0xE0B7
	}
	return o.Seed
}

// Row is one bar of a figure: a batch setting and its priced result.
type Row struct {
	Batches  int
	Schedule batch.Schedule
	Result   sim.JobResult
	// AggregationSeconds is the whole-graph mode's aggregation phase
	// (Fig. 10's stacked upper bar); zero elsewhere.
	AggregationSeconds float64
}

// Seconds returns the displayed running time, clamped to the cutoff for
// overloaded runs as the paper does.
func (r Row) Seconds() float64 {
	if r.Result.Overload && r.Result.Seconds > sim.DefaultCutoffSeconds {
		return sim.DefaultCutoffSeconds
	}
	return r.Result.Seconds
}

// Series is one experiment setting swept over batch counts.
type Series struct {
	Label string // e.g. "(Workload,#Machines,System)=(10240,8,Pregel+)"
	Rows  []Row
}

// Best returns the row with the lowest time, preferring non-overloaded
// rows (the yellow arrows of Figs. 3, 5).
func (s Series) Best() Row {
	best := s.Rows[0]
	for _, r := range s.Rows[1:] {
		if r.Result.Overload && !best.Result.Overload {
			continue
		}
		if (!r.Result.Overload && best.Result.Overload) || r.Seconds() < best.Seconds() {
			best = r
		}
	}
	return best
}

// Figure is a reproduced table or figure.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// setting describes one series to run.
type setting struct {
	dataset  string
	cluster  sim.ClusterProfile
	machines int
	system   sim.SystemProfile
	task     TaskKind
	// paperW is the paper's workload (walks/node or sources).
	paperW int
	// replicaW overrides the derived replica workload when non-zero.
	replicaW int
	batches  []int
	seed     uint64
	// wholeGraph runs §4.9's whole-graph access mode.
	wholeGraph bool
	// statScaleOverride replaces the derived extrapolation factor; used
	// where replica locality distorts volume scaling (Twitter BKHS/MSSP:
	// the scaled-down replica's 2-hop neighborhoods cover a far larger
	// fraction of the graph than the original's, see EXPERIMENTS.md).
	statScaleOverride float64
}

// defaultBatches is the doubling sweep the paper plots.
var defaultBatches = []int{1, 2, 4, 8, 16}

// replicaWorkload derives the scaled workload for a setting.
func (s setting) replicaWorkload(o Options) int {
	if s.replicaW != 0 {
		w := s.replicaW
		if o.Fast && w > 8 {
			w /= 4
			if w < 8 {
				w = 8
			}
		}
		return w
	}
	div := 64
	if o.Fast {
		div *= 4
	}
	w := s.paperW / div
	floor := 8
	if w < floor {
		w = floor
	}
	cap := 2048
	if w > cap {
		w = cap
	}
	return w
}

// label renders the paper's "(Workload,#Machines,X)" captions.
func (s setting) label(x string) string {
	return fmt.Sprintf("(%d,%d,%s)", s.paperW, s.machines, x)
}

// pickSources deterministically selects count distinct source vertices.
func pickSources(n, count int, seed uint64) []graph.VertexID {
	if count > n {
		count = n
	}
	rng := randx.New(seed)
	perm := make([]int, n)
	rng.Perm(perm)
	out := make([]graph.VertexID, count)
	for i := 0; i < count; i++ {
		out[i] = graph.VertexID(perm[i])
	}
	return out
}

// jobConfig assembles the cost configuration for a setting.
func (s setting) jobConfig(d graph.DatasetSpec, replicaW int) sim.JobConfig {
	cl := s.cluster
	if s.machines != 0 && s.machines != cl.Machines {
		cl = cl.WithMachines(s.machines)
	}
	statScale := d.ScaleNodes() * float64(s.paperW) / float64(replicaW)
	if s.statScaleOverride != 0 {
		statScale = s.statScaleOverride
	}
	cfg := tasks.CostConfig(d, cl, s.system, statScale)
	if s.wholeGraph {
		cfg.GraphBytesPerMachine = d.PaperBytesPerMachine(1)
	}
	return cfg
}

// makeJob builds a fresh job for one run of the setting.
func (s setting) makeJob(g *graph.Graph, part *graph.Partition, replicaW int, seed uint64, o Options) (tasks.Job, error) {
	spec := tasks.Spec{
		Task: string(s.task), Workload: replicaW, K: 2, Seed: seed, Workers: o.Workers, OOC: o.OOC,
	}
	if s.task != BPPR {
		spec.Sources = pickSources(g.NumVertices(), replicaW, s.seed)
	}
	return tasks.Build(g, part, s.system, spec)
}

// run executes the setting across its batch sweep.
func (s setting) run(o Options, labelSuffix string) (Series, error) {
	d, err := graph.Dataset(s.dataset)
	if err != nil {
		return Series{}, err
	}
	g := d.Load()
	batches := s.batches
	if batches == nil {
		batches = defaultBatches
	}
	replicaW := s.replicaWorkload(o)
	cfg := s.jobConfig(d, replicaW)
	// The mirror BPPR variant runs at the paper workload: its fractional
	// push volume is driven by pruning depth, not walk count, so only the
	// graph-scale factor extrapolates.
	if s.task == BPPR && s.system.Mirror {
		replicaW = s.paperW
		if o.Fast && replicaW > 16 {
			replicaW /= 4
		}
		cfg.StatScale = d.ScaleNodes()
	}
	var part *graph.Partition
	if s.wholeGraph {
		part = graph.HashPartition(g.NumVertices(), 1)
	} else {
		part = graph.HashPartition(g.NumVertices(), cfg.Cluster.Machines)
	}
	series := Series{Label: s.label(labelSuffix)}
	for _, k := range batches {
		job, err := s.makeJob(g, part, replicaW, s.seed+uint64(k)*101, o)
		if err != nil {
			return Series{}, err
		}
		sched := batch.Equal(replicaW, k)
		row := Row{Batches: k, Schedule: sched}
		if s.wholeGraph {
			res, err := batch.RunWholeGraph(job, cfg, sched)
			if err != nil {
				return Series{}, err
			}
			row.Result = res.JobResult
			row.AggregationSeconds = res.AggregationSeconds
		} else {
			res, err := batch.Run(job, cfg, sched, nil)
			if err != nil {
				return Series{}, err
			}
			row.Result = res
		}
		series.Rows = append(series.Rows, row)
	}
	return series, nil
}

// runAll executes a list of settings with their label suffixes.
func runAll(o Options, settings []setting, suffix func(setting) string) ([]Series, error) {
	var out []Series
	for _, s := range settings {
		ser, err := s.run(o, suffix(s))
		if err != nil {
			return nil, err
		}
		out = append(out, ser)
	}
	return out, nil
}
