package tasks

import (
	"fmt"
	"slices"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/rec"
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
	Async     bool
	Seed      uint64
	MaxRounds int
	// Workers sets the engine worker-pool size (see engine.Options.Workers);
	// results are identical for every value.
	Workers            int
	StopWhenOverloaded bool
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
	g    *graph.Graph
	part *graph.Partition
	cfg  BKHSConfig

	// reached[i] counts vertices within K hops of Sources[i] (excluding
	// the source itself).
	reached []int64
	done    int

	// eng runs every synchronous batch (see runBatch); srcIdx is the
	// batches' shared source index (see newSourceIndex) and hops their
	// shared vertex-major hop table (see bkhsProg), grown to the largest
	// batch and re-initialised per batch instead of reallocated.
	eng    *engine.Engine[HopMsg]
	srcIdx []int32
	hops   []uint8
}

// NewBKHS constructs a BKHS job.
func NewBKHS(g *graph.Graph, part *graph.Partition, cfg BKHSConfig) *BKHSJob {
	if cfg.K == 0 {
		cfg.K = 2
	}
	return &BKHSJob{
		g: g, part: part, cfg: cfg,
		reached: make([]int64, len(cfg.Sources)),
		srcIdx:  newSourceIndex(g.NumVertices()),
	}
}

// Name implements Job.
func (j *BKHSJob) Name() string { return "BKHS" }

// TotalWorkload implements Job: the number of sources.
func (j *BKHSJob) TotalWorkload() int { return len(j.cfg.Sources) }

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

// SourcesDone returns how many sources have completed.
func (j *BKHSJob) SourcesDone() int { return j.done }

// exec is the execution half of the config.
func (c BKHSConfig) exec() execConfig {
	return execConfig{c.Mirror, c.Async, c.Combine, c.Seed, c.MaxRounds, c.Workers, c.StopWhenOverloaded,
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

// RunBatch implements Job: processes the next `workload` sources. It fails
// when the configured radius exceeds MaxBKHSHops.
func (j *BKHSJob) RunBatch(run *sim.Run, workload int, batchIdx int) ([]int64, error) {
	if workload <= 0 || j.done >= len(j.cfg.Sources) {
		return make([]int64, j.part.NumMachines()), nil
	}
	prog, err := j.nextBatch(workload)
	if err != nil {
		return nil, err
	}
	if err := runBatch(&j.eng, j.g, j.part, prog, run, j.cfg.exec(), batchIdx, hopKind); err != nil {
		unmarkSources(j.srcIdx, prog.sources)
		return nil, fmt.Errorf("tasks: BKHS batch %d: %w", batchIdx, err)
	}
	return prog.Finish(), nil
}

// NextBatch returns the vertex program of the job's next `workload`
// sources, or an error when the configured radius exceeds MaxBKHSHops.
func (j *BKHSJob) NextBatch(workload int) (Batch[HopMsg], error) { return j.nextBatch(workload) }

func (j *BKHSJob) nextBatch(workload int) (*bkhsProg, error) {
	if j.cfg.K > MaxBKHSHops {
		return nil, fmt.Errorf("tasks: BKHS radius k=%d exceeds the supported maximum %d", j.cfg.K, MaxBKHSHops)
	}
	k := j.part.NumMachines()
	n := j.g.NumVertices()
	batch := nextSources(j.cfg.Sources, j.done, workload)
	prog := &bkhsProg{
		job:     j,
		sources: batch,
		srcIdx:  j.srcIdx,
		counts:  make([][]int64, k),
		entries: make([]int64, k),
	}
	for m := 0; m < k; m++ {
		prog.counts[m] = make([]int64, len(batch))
	}
	if len(j.hops) < n*len(batch) {
		j.hops = make([]uint8, n*len(batch))
	}
	prog.hops = j.hops[:n*len(batch)]
	for i, s := range batch {
		j.srcIdx[s] = int32(i)
	}
	// Doubling copies fill the table at memmove speed; a byte loop over
	// 1024 × n entries per batch is a measurable share of a pass.
	prog.hops[0] = unreachedHop
	for f := 1; f < len(prog.hops); f *= 2 {
		copy(prog.hops[f:], prog.hops[:f])
	}
	return prog, nil
}

// Finish implements Batch: the machines' first-reach tallies add up to the
// job's per-source counts.
func (p *bkhsProg) Finish() []int64 {
	j := p.job
	unmarkSources(j.srcIdx, p.sources)
	for i := range p.sources {
		var c int64
		for m := range p.counts {
			c += p.counts[m][i]
		}
		j.reached[j.done+i] = c
	}
	j.done += len(p.sources)
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
// rounds and asynchronous delivery.
type bkhsProg struct {
	job     *BKHSJob
	sources []graph.VertexID
	srcIdx  []int32 // vertex -> index into sources, -1 for non-sources
	// hops is vertex-major: v's hop count from batch source i is
	// hops[v*len(sources)+i], so one vertex's entries share a cache line.
	hops []uint8
	// counts[m][i] is machine m's tally of first reaches for batch source
	// i; per-machine lanes because machines compute concurrently, summed
	// at batch end.
	counts  [][]int64
	entries []int64
}

func (p *bkhsProg) Seed(ctx vcapi.Context[HopMsg]) {
	for _, s := range ctx.OwnedVertices() {
		i := int(p.srcIdx[s])
		if i < 0 {
			continue
		}
		p.hops[int(s)*len(p.sources)+i] = 0
		p.entries[ctx.Machine()]++
		p.forward(ctx, s, s, 1)
	}
}

func (p *bkhsProg) Compute(ctx vcapi.Context[HopMsg], v graph.VertexID, msgs []HopMsg) {
	row := p.hops[int(v)*len(p.sources):][:len(p.sources)]
	for _, m := range msgs {
		i := int(p.srcIdx[m.Src])
		h := uint8(m.Hop)
		if row[i] <= h {
			continue
		}
		if row[i] == unreachedHop {
			p.counts[ctx.Machine()][i]++
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

// StateEntries implements vcapi.StateReporter.
func (p *bkhsProg) StateEntries(machine int) int64 { return p.entries[machine] }

// AppendState implements vcapi.StateSnapshotter: the hop table, one row per
// batch source (see appendColumns), per-machine first-reach counts, and
// entry counts.
func (p *bkhsProg) AppendState(buf []byte) ([]byte, error) {
	buf = appendColumns(buf, p.hops, len(p.sources))
	return appendRows(buf, slices.Concat(p.counts, [][]int64{p.entries}), len(p.entries)), nil
}

// LoadState implements vcapi.StateSnapshotter.
func (p *bkhsProg) LoadState(data []byte) error {
	c := rec.NewCursor(data, ckpt.ErrCorrupt)
	readColumns(&c, p.hops, len(p.sources))
	readRows(&c, slices.Concat(p.counts, [][]int64{p.entries}), len(p.entries))
	return c.Done()
}
