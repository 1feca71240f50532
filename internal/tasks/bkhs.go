package tasks

import (
	"fmt"

	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// HopMsg announces that the receiving vertex is reachable from Src within
// Hop hops (§3, Pregel (BKHS)).
type HopMsg struct {
	Src graph.VertexID
	Hop int32
}

// BKHSConfig configures a Batch k-Hop Search job.
type BKHSConfig struct {
	// Sources is the full source set S; the workload unit is one source.
	Sources []graph.VertexID
	// K is the hop radius (the paper's motivating applications search
	// two-hop ego networks; default 2).
	K      int
	Mirror bool
	// Async runs batches on the asynchronous GAS executor; the program
	// relaxes minimum hop counts monotonically, so asynchronous delivery
	// preserves the k-hop sets.
	Async bool
	// Seed: see MSSPConfig.
	Seed uint64
	// Workers sets the engine worker-pool size (see engine.Options.Workers);
	// results are identical for every value.
	Workers int
	// CheckpointDir/CheckpointInterval/Fault: see MSSPConfig.
	CheckpointDir      string
	CheckpointInterval int
	Fault              *fault.Plan
	// OOC enables partitioned out-of-core execution on the synchronous
	// path (see OOCConfig); ignored in Async and Mirror modes.
	OOC *OOCConfig
	// Combine folds each vertex's delivered messages to one per source
	// with a minimum-hop combiner. See MSSPConfig for the contract.
	Combine bool
}

// BKHSJob computes, for every source s in S, the set of vertices within K
// hops of s. Per the paper, each batch terminates after exactly k+1
// communication rounds (§3).
type BKHSJob struct {
	sourceJob[HopMsg, uint8]
	cfg BKHSConfig

	// reached[i] counts vertices within K hops of Sources[i] (excluding
	// the source itself).
	reached []int64
}

// NewBKHS constructs a BKHS job.
func NewBKHS(g *graph.Graph, part *graph.Partition, cfg BKHSConfig) *BKHSJob {
	if cfg.K == 0 {
		cfg.K = 2
	}
	j := &BKHSJob{
		sourceJob: newSourceJob[HopMsg, uint8]("BKHS", g, part, cfg.Sources, cfg.exec(), hopKind),
		cfg:       cfg,
		reached:   make([]int64, len(cfg.Sources)),
	}
	j.next, j.recycle = j.NextBatch, true
	return j
}

// MemModel implements Job: a visited (source, vertex) pair costs ~8 bytes.
func (j *BKHSJob) MemModel() sim.TaskMemModel {
	return sim.TaskMemModel{StateBytesPerEntry: 8, ResidualBytesPerEntry: 8}
}

// Reached returns the number of vertices within K hops of Sources[i]
// (excluding the source), or -1 if not yet computed.
func (j *BKHSJob) Reached(i int) int64 {
	if i >= j.done {
		return -1
	}
	return j.reached[i]
}

// exec is the execution half of the config.
func (c BKHSConfig) exec() execConfig {
	return execConfig{c.Mirror, c.Async, c.Combine, c.Seed, c.Workers,
		c.CheckpointDir, c.CheckpointInterval, c.Fault, c.OOC}
}

// HopCodec implements engine.Codec for HopMsg (see appendPair).
type HopCodec struct{}

func (HopCodec) Encode(buf []byte, m HopMsg) []byte { return appendPair(buf, m.Src, uint32(m.Hop)) }
func (HopCodec) Decode(d []byte) (HopMsg, int) {
	s, p := readPair(d)
	return HopMsg{s, int32(p)}, 8
}

// hopKind describes HopMsg; its fold keeps the smaller hop count.
var hopKind = msgKind[HopMsg]{
	codec: HopCodec{},
	combine: func(a, b HopMsg) HopMsg {
		if b.Hop < a.Hop {
			return b
		}
		return a
	},
	key: func(m HopMsg) uint64 { return uint64(m.Src) },
}

// NextBatch returns the vertex program of the job's next `workload`
// sources, or an error when a source is not a vertex of the graph or
// repeats another, or the configured radius is outside 1..MaxBKHSHops.
func (j *BKHSJob) NextBatch(workload int) (Batch[HopMsg], error) {
	if j.invalid != nil {
		return nil, j.invalid
	}
	if j.cfg.K < 1 || j.cfg.K > MaxBKHSHops {
		return nil, fmt.Errorf("tasks: BKHS radius k=%d is outside the supported 1..%d", j.cfg.K, MaxBKHSHops)
	}
	prog := &bkhsProg{sourceTable: j.cut(workload, unreachedHop), job: j}
	prog.lanes = make([][]int64, len(prog.entries))
	for m := range prog.lanes {
		prog.lanes[m] = make([]int64, len(prog.sources))
	}
	return prog, nil
}

// Finish implements Batch: the machines' first-reach tallies add up to the
// job's per-source counts.
func (p *bkhsProg) Finish() []int64 {
	first := p.job.finish()
	for i := range p.sources {
		var c int64
		for _, lane := range p.lanes {
			c += lane[i]
		}
		p.job.reached[first+i] = c
	}
	return p.entries
}

// unreachedHop marks a vertex not yet reached for a source. Hop counts live
// in a byte per (source, vertex) — the paper's BKHS applications search ego
// networks of radius 2 — so MaxBKHSHops is the largest radius a job accepts.
const (
	unreachedHop = ^uint8(0)
	MaxBKHSHops  = int(unreachedHop) - 1
)

// bkhsProg is the per-batch vertex program: a k-bounded multi-source BFS
// that relaxes minimum hop counts, so it is correct under both synchronous
// rounds and asynchronous delivery. Its table holds the hop counts, and
// its lanes are each machine's tally of first reaches per batch source
// (per-machine because machines compute concurrently, summed at batch
// end).
type bkhsProg struct {
	sourceTable[uint8]
	job *BKHSJob
}

func (p *bkhsProg) Seed(ctx vcapi.Context[HopMsg]) {
	for _, s := range ctx.OwnedVertices() {
		i := int(p.srcIdx[s])
		if i < 0 {
			continue
		}
		p.row(s)[i] = 0
		p.entries[ctx.Machine()]++
		p.forward(ctx, s, s, 1)
	}
}

func (p *bkhsProg) Compute(ctx vcapi.Context[HopMsg], v graph.VertexID, msgs []HopMsg) {
	row := p.row(v)
	for _, m := range msgs {
		i := int(p.srcIdx[m.Src])
		h := uint8(m.Hop)
		if row[i] <= h {
			continue
		}
		if row[i] == unreachedHop {
			p.lanes[ctx.Machine()][i]++
			p.entries[ctx.Machine()]++
		}
		row[i] = h
		if int(m.Hop) < p.job.cfg.K {
			p.forward(ctx, v, m.Src, m.Hop+1)
		}
	}
}

func (p *bkhsProg) forward(ctx vcapi.Context[HopMsg], v, src graph.VertexID, hop int32) {
	if p.job.cfg.Mirror {
		ctx.Broadcast(v, HopMsg{Src: src, Hop: hop})
		return
	}
	ctx.SendAll(ctx.Graph().Neighbors(v), HopMsg{Src: src, Hop: hop})
}
