package tasks

import (
	"errors"
	"math"

	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// DistMsg proposes a candidate shortest-path distance from Src to the
// receiving vertex (§3, Pregel (MSSP)). In the broadcast (mirror) variant
// the message carries the sender's own distance and every receiver adds the
// unit edge length, matching the paper's Pregel-Mirror (MSSP).
type DistMsg struct {
	Src  graph.VertexID
	Dist float32
}

// MSSPConfig configures a Multi-Source Shortest Path distance job.
type MSSPConfig struct {
	// Sources is the full source set S; the workload unit is one source.
	Sources []graph.VertexID
	// Mirror selects the broadcast-interface implementation. Only valid on
	// unweighted graphs (a broadcast message cannot carry per-edge
	// weights).
	Mirror bool
	// Async runs batches on the asynchronous GAS executor; shortest-path
	// relaxation is monotone, so asynchronous delivery preserves results.
	Async bool
	// Seed derives every batch's executor seed (see BatchSeed). A batch's
	// supersteps are bounded by the engine default, 10000.
	Seed uint64
	// Workers sets the engine worker-pool size (see engine.Options.Workers);
	// results are identical for every value.
	Workers int
	// CheckpointDir, when non-empty, enables superstep checkpointing on the
	// sync engine (each batch checkpoints into its own subdirectory).
	// Ignored in Async mode: the GAS executor has no barrier to cut at.
	CheckpointDir string
	// CheckpointInterval is in supersteps (engine default when 0).
	CheckpointInterval int
	// Fault injects deterministic failures (see internal/fault).
	Fault *fault.Plan
	// OOC enables partitioned out-of-core execution on the synchronous
	// path (see OOCConfig); ignored in Async and Mirror modes.
	OOC *OOCConfig
	// Combine folds each vertex's delivered messages to one per source
	// with a minimum-distance combiner (§4.8). The fold runs at delivery,
	// on the in-memory and the out-of-core backend alike: distances and
	// sent counts are unchanged, a vertex receives — and relaxes — at most
	// one message per source per round. Ignored in Async mode (the GAS
	// executor folds per activation already).
	Combine bool
}

// MSSPJob computes single-source shortest path distances from every source
// in S. Completed batches keep their distance tables resident (the
// residual memory the tuning framework of §5 models).
type MSSPJob struct {
	sourceJob[DistMsg, float32]
	cfg MSSPConfig

	// dist[i] is the distance table of Sources[i]'s batch (see msspProg),
	// nil until the batch ran, and col[i] the source's column there.
	dist [][]float32
	col  []int
}

// NewMSSP constructs an MSSP job. It fails for a mirror configuration on a
// weighted graph, and for a source that is not a vertex of g or repeats
// another.
func NewMSSP(g *graph.Graph, part *graph.Partition, cfg MSSPConfig) (*MSSPJob, error) {
	if cfg.Mirror && g.Weighted() {
		return nil, errors.New("tasks: MSSP broadcast variant requires an unweighted graph")
	}
	if cfg.Mirror && cfg.Async {
		return nil, errors.New("tasks: MSSP cannot combine Mirror with Async")
	}
	j := &MSSPJob{
		sourceJob: newSourceJob[DistMsg, float32]("MSSP", g, part, cfg.Sources, cfg.exec(), distKind),
		cfg:       cfg,
		dist:      make([][]float32, len(cfg.Sources)),
		col:       make([]int, len(cfg.Sources)),
	}
	if j.invalid != nil {
		return nil, j.invalid
	}
	j.next = func(workload int) (Batch[DistMsg], error) { return j.NextBatch(workload), nil }
	return j, nil
}

// MemModel implements Job: a finite (source, vertex, dist) entry costs ~12
// bytes.
func (j *MSSPJob) MemModel() sim.TaskMemModel {
	return sim.TaskMemModel{StateBytesPerEntry: 12, ResidualBytesPerEntry: 12}
}

// Distance returns the computed shortest-path distance from Sources[i] to
// v, or +Inf if unreachable or not yet computed.
func (j *MSSPJob) Distance(i int, v graph.VertexID) float64 {
	t := j.dist[i]
	if t == nil {
		return math.Inf(1)
	}
	return float64(t[int(v)*(len(t)/j.g.NumVertices())+j.col[i]])
}

// exec is the execution half of the config.
func (c MSSPConfig) exec() execConfig {
	return execConfig{c.Mirror, c.Async, c.Combine, c.Seed, c.Workers,
		c.CheckpointDir, c.CheckpointInterval, c.Fault, c.OOC}
}

// DistCodec implements engine.Codec for DistMsg (see appendPair).
type DistCodec struct{}

func (DistCodec) Encode(buf []byte, m DistMsg) []byte {
	return appendPair(buf, m.Src, math.Float32bits(m.Dist))
}
func (DistCodec) Decode(d []byte) (DistMsg, int) {
	s, p := readPair(d)
	return DistMsg{s, math.Float32frombits(p)}, 8
}

// distKind describes DistMsg; its fold is a selection (first on ties), so
// it is exact however a backend groups it.
var distKind = msgKind[DistMsg]{
	codec: DistCodec{},
	combine: func(a, b DistMsg) DistMsg {
		if b.Dist < a.Dist {
			return b
		}
		return a
	},
	key: func(m DistMsg) uint64 { return uint64(m.Src) },
}

// NextBatch returns the vertex program of the job's next `workload`
// sources.
func (j *MSSPJob) NextBatch(workload int) Batch[DistMsg] {
	k := j.part.NumMachines()
	prog := &msspProg{
		sourceTable:  j.cut(workload, float32(math.Inf(1))),
		job:          j,
		improved:     make([][]int32, k),
		improvedList: make([][]int, k),
		epoch:        make([]int32, k),
	}
	for m := range prog.improved {
		prog.improved[m] = make([]int32, len(prog.sources))
	}
	return prog
}

// Finish implements Batch: the batch's distance table becomes the job's.
func (p *msspProg) Finish() []int64 {
	first := p.job.finish(&p.sourceTable)
	for i := range p.sources {
		p.job.dist[first+i], p.job.col[first+i] = p.cells, i
	}
	return p.entries
}

// msspProg is the per-batch vertex program: each vertex keeps the best
// known distance per batch source and relaxes neighbors on improvement,
// terminating when a round produces no shorter paths (§3). Its table holds
// the distances, and its entries count the finite ones. The relaxation
// scratch is reset at every Compute call and needs no snapshot: epochs
// only grow, so stale marks never collide after a restore.
type msspProg struct {
	sourceTable[float32]
	job *MSSPJob

	// Relaxation scratch is per machine: machines compute concurrently, so
	// each keeps its own epoch marks and improved-source list.
	improved     [][]int32 // [machine][batch-source index] epoch marks
	improvedList [][]int
	epoch        []int32
}

func (p *msspProg) Seed(ctx vcapi.Context[DistMsg]) {
	for _, s := range ctx.OwnedVertices() {
		i := int(p.srcIdx[s])
		if i < 0 {
			continue
		}
		p.row(s)[i] = 0
		p.entries[ctx.Machine()]++
		p.relax(ctx, s, i, 0)
	}
}

func (p *msspProg) Compute(ctx vcapi.Context[DistMsg], v graph.VertexID, msgs []DistMsg) {
	mach := ctx.Machine()
	p.epoch[mach]++
	epoch := p.epoch[mach]
	improved := p.improved[mach]
	list := p.improvedList[mach][:0]
	row := p.row(v)
	for _, m := range msgs {
		i := int(p.srcIdx[m.Src])
		d := m.Dist
		if p.job.cfg.Mirror {
			// Broadcast variant: the message carries the sender's own
			// distance; the receiver adds the unit edge.
			d++
		}
		if d < row[i] {
			if math.IsInf(float64(row[i]), 1) {
				p.entries[mach]++
			}
			row[i] = d
			if improved[i] != epoch {
				improved[i] = epoch
				list = append(list, i)
			}
		}
	}
	p.improvedList[mach] = list
	for _, i := range list {
		p.relax(ctx, v, i, row[i])
	}
}

// relax propagates v's distance d from batch source i to every neighbor,
// with one payload for all of them on an unweighted graph.
func (p *msspProg) relax(ctx vcapi.Context[DistMsg], v graph.VertexID, i int, d float32) {
	src := p.sources[i]
	if p.job.cfg.Mirror {
		ctx.Broadcast(v, DistMsg{Src: src, Dist: d})
		return
	}
	g := ctx.Graph()
	ns := g.Neighbors(v)
	if !g.Weighted() {
		ctx.SendAll(ns, DistMsg{Src: src, Dist: d + 1})
		return
	}
	for e, u := range ns {
		ctx.Send(u, DistMsg{Src: src, Dist: d + g.Weight(v, e)})
	}
}
