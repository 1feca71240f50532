package tasks

import (
	"encoding/binary"
	"fmt"
	"math"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/rec"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// WalkMsg is the BPPR message of the Pregel-based implementation (§3):
// Count walks originating at Src take one step to the destination vertex.
// Sending counted messages instead of one message per walk matches the
// combining GraphLab's sync engine performs (§4.8); the engine's logical
// weight function restores per-walk accounting for the systems that send
// one message per walk.
type WalkMsg struct {
	Src   graph.VertexID
	Count int32
}

// MassMsg is the BPPR message of the mirror-mechanism-based implementation
// (§3): a common message broadcast to every neighbor, carrying the
// fractional number of walks from Src that each receiving neighbor gets
// (the "generalized random walk" / forward-push formulation).
type MassMsg struct {
	Src  graph.VertexID
	Mass float32
}

// BPPRConfig configures a Batch Personalized PageRank job.
type BPPRConfig struct {
	// Alpha is the walk stop probability (default 0.15).
	Alpha float64
	// WalksPerNode is the workload W: every vertex starts W α-decay walks.
	WalksPerNode int
	// Sources restricts the walk origins to a subset of vertices: the
	// paper's alternative workload setting (§4.9), where the unit task is
	// a PPR query and a batch contains a subset of source nodes. When set,
	// the workload unit becomes one source (each source runs WalksPerNode
	// walks, default 1024), and batches split the source set.
	Sources []graph.VertexID
	// Mirror selects the broadcast-interface implementation (fractional
	// push); required for Pregel+(mirror) runs.
	Mirror bool
	// PruneThreshold stops propagating fractional walk mass below this
	// many walks (mirror variant only; default 0.25). Truncated mass is
	// attributed to the vertex where it was parked, so per-source mass is
	// conserved exactly.
	PruneThreshold float64
	// Async runs batches on the asynchronous GAS executor (GraphLab(async),
	// §4.8) instead of the synchronous BSP engine. Incompatible with
	// Mirror (the GraphLab family has no mirroring).
	Async bool
	// Seed drives the per-machine deterministic RNG streams.
	Seed uint64
	// MaxRounds bounds each batch's supersteps (default 10000).
	MaxRounds int
	// Workers sets the engine worker-pool size (see engine.Options.Workers);
	// results are identical for every value.
	Workers int
	// StopWhenOverloaded abandons a batch past the 6000 s cutoff.
	StopWhenOverloaded bool
	// CheckpointDir/CheckpointInterval/Fault: see MSSPConfig.
	CheckpointDir      string
	CheckpointInterval int
	Fault              *fault.Plan
	// OOC enables partitioned out-of-core execution on the synchronous
	// paths (see OOCConfig); ignored in Async and Mirror modes.
	OOC *OOCConfig
	// Combine folds each vertex's delivered walk messages to one per source
	// by adding their counts — integer walk counts, so the merge is exact
	// and the walk semantics are unchanged (receivers already handle
	// counted walks; see MSSPConfig for when the fold runs). Applies to the
	// synchronous Monte-Carlo path only: the mirror variant's fractional
	// mass is floating point, where regrouping the addition is not
	// bit-exact, and Async folds per activation already.
	Combine bool
}

// BPPRJob runs Batch Personalized PageRank: PPR(s) for every vertex s,
// estimated from W α-decay random walks per vertex (§2.3). Walk endpoints
// are the intermediate results that accumulate across batches (the
// residual memory of §4.5 and §5).
type BPPRJob struct {
	g    *graph.Graph
	part *graph.Partition
	cfg  BPPRConfig

	// endpoints[m] maps pairKey(src, stopVertex) to the (possibly
	// fractional) number of walks from src that stopped at stopVertex, for
	// pairs whose stopVertex lives on machine m.
	endpoints   []endpointTable
	baseline    []int64 // entry counts at the start of the current batch
	launched    int     // walks per node launched so far across batches
	sourcesDone int     // sources completed (source-subset mode)

	// The engine that runs every synchronous batch (see runBatch): mcEng
	// for the Monte-Carlo program, pushEng for the mirror variant.
	mcEng   *engine.Engine[WalkMsg]
	pushEng *engine.Engine[MassMsg]
}

// NewBPPR constructs a BPPR job over the given graph partition. It panics
// if both Mirror and Async are set: the GraphLab family has no mirroring.
func NewBPPR(g *graph.Graph, part *graph.Partition, cfg BPPRConfig) *BPPRJob {
	if cfg.Mirror && cfg.Async {
		panic("tasks: BPPR cannot combine Mirror with Async")
	}
	if len(cfg.Sources) > 0 && cfg.WalksPerNode == 0 {
		cfg.WalksPerNode = 1024
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.15
	}
	if cfg.PruneThreshold == 0 {
		cfg.PruneThreshold = 0.25
	}
	return &BPPRJob{
		g: g, part: part, cfg: cfg,
		endpoints: make([]endpointTable, part.NumMachines()),
		baseline:  make([]int64, part.NumMachines()),
	}
}

// Name implements Job.
func (j *BPPRJob) Name() string { return "BPPR" }

// TotalWorkload implements Job: walks per node, or the source count in
// source-subset mode (§4.9).
func (j *BPPRJob) TotalWorkload() int {
	if len(j.cfg.Sources) > 0 {
		return len(j.cfg.Sources)
	}
	return j.cfg.WalksPerNode
}

// MemModel implements Job: an endpoint entry is a (source, vertex, count)
// triple (~16 bytes in the C++ systems' hash tables).
func (j *BPPRJob) MemModel() sim.TaskMemModel {
	return sim.TaskMemModel{StateBytesPerEntry: 16, ResidualBytesPerEntry: 16}
}

// WalksLaunched returns the per-node walks launched so far.
func (j *BPPRJob) WalksLaunched() int { return j.launched }

// Estimate returns the current PPR estimate of target with respect to src:
// the fraction of src's walks that stopped at target. In source-subset
// mode the denominator is WalksPerNode once src's batch has run.
func (j *BPPRJob) Estimate(src, target graph.VertexID) float64 {
	denom := j.launched
	if len(j.cfg.Sources) > 0 {
		if j.launched == 0 {
			return 0
		}
		denom = j.cfg.WalksPerNode
	}
	if denom == 0 {
		return 0
	}
	m := j.part.Owner(target)
	return j.endpoints[m].get(pairKey(src, target)) / float64(denom)
}

// EndpointEntries returns the total number of (source, vertex) endpoint
// pairs recorded so far.
func (j *BPPRJob) EndpointEntries() int64 {
	var t int64
	for m := range j.endpoints {
		t += int64(j.endpoints[m].n)
	}
	return t
}

// EndpointMass returns the total walk mass recorded for src; exactly the
// walks launched from src for completed batches (mass conservation).
func (j *BPPRJob) EndpointMass(src graph.VertexID) float64 {
	var t float64
	for m := range j.endpoints {
		j.EachEndpoint(m, func(s, _ graph.VertexID, walks float64) {
			if s == src {
				t += walks
			}
		})
	}
	return t
}

// EachEndpoint calls yield for every (src, v) pair of machine's endpoint
// table, in the order the pairs were first recorded, with the number of
// src's walks that stopped at v.
func (j *BPPRJob) EachEndpoint(machine int, yield func(src, v graph.VertexID, walks float64)) {
	for _, chunk := range j.endpoints[machine].chunks {
		for _, e := range chunk {
			yield(graph.VertexID(e.key>>32), graph.VertexID(uint32(e.key)), e.mass)
		}
	}
}

func (j *BPPRJob) addEndpoint(machine int, src, v graph.VertexID, mass float64) {
	e, _ := j.endpoints[machine].ref(pairKey(src, v))
	e.mass += mass
}

// appendEndpoints appends the per-machine endpoint tables to buf, each as
// its entry count and its entries in first-insertion order — one scan, no
// sort. That order is fixed by the run: machine m's Seed and Compute calls
// alone write table m, in the same order for every worker count and
// backend, and a restore rebuilds it in file order. It is the checkpointed
// state of both BPPR variants (the baselines are set at batch start).
func (j *BPPRJob) appendEndpoints(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(j.endpoints)))
	for m := range j.endpoints {
		t := &j.endpoints[m]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.n))
		for _, chunk := range t.chunks {
			for _, e := range chunk {
				buf = binary.LittleEndian.AppendUint64(buf, e.key)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.mass))
			}
		}
	}
	return buf
}

// loadEndpoints restores the endpoint tables from an appendEndpoints image,
// discarding any entries recorded after the checkpoint was cut. An image
// that does not hold exactly the job's machines' tables, repeats a pair or
// records a mass that is not positive is an error wrapping ckpt.ErrCorrupt,
// and leaves the tables as they were.
func (j *BPPRJob) loadEndpoints(data []byte) error {
	c := rec.NewCursor(data, ckpt.ErrCorrupt)
	if int(c.U32()) != len(j.endpoints) {
		return c.Fail("tasks: BPPR snapshot does not hold the job's %d machines", len(j.endpoints))
	}
	tbls := make([]endpointTable, len(j.endpoints))
	for m := range tbls {
		count := c.U64()
		if count > uint64(c.Len()/16) {
			return c.Fail("tasks: BPPR snapshot claims %d endpoints for machine %d in %d bytes", count, m, c.Len())
		}
		for range count {
			key, mass := c.U64(), math.Float64frombits(c.U64())
			e, fresh := tbls[m].ref(key)
			if !fresh || !(mass > 0) {
				return c.Fail("tasks: BPPR snapshot repeats pair %#x or records mass %v for it on machine %d", key, mass, m)
			}
			e.mass = mass
		}
	}
	if err := c.Done(); err != nil {
		return err
	}
	j.endpoints = tbls
	return nil
}

// exec is the execution half of the config.
func (c BPPRConfig) exec() execConfig {
	return execConfig{c.Mirror, c.Async, c.Combine, c.Seed, c.MaxRounds, c.Workers, c.StopWhenOverloaded,
		c.CheckpointDir, c.CheckpointInterval, c.Fault, c.OOC}
}

// WalkCodec and massCodec implement engine.Codec for the two BPPR message
// types (see appendPair).
type (
	WalkCodec struct{}
	massCodec struct{}
)

func (WalkCodec) Encode(buf []byte, m WalkMsg) []byte { return appendPair(buf, m.Src, uint32(m.Count)) }
func (WalkCodec) Decode(d []byte) (WalkMsg, int) {
	s, p := readPair(d)
	return WalkMsg{s, int32(p)}, 8
}
func (massCodec) Encode(buf []byte, m MassMsg) []byte {
	return appendPair(buf, m.Src, math.Float32bits(m.Mass))
}
func (massCodec) Decode(d []byte) (MassMsg, int) {
	s, p := readPair(d)
	return MassMsg{s, math.Float32frombits(p)}, 8
}

// walkKind describes WalkMsg: a message weighs the walks it carries, and
// its fold adds integer counts. massKind has no fold — MassMsg is floating
// point, where regrouping an addition is not bit-exact.
var (
	walkKind = msgKind[WalkMsg]{
		codec:  WalkCodec{},
		weight: func(m WalkMsg) int64 { return int64(m.Count) },
		combine: func(a, b WalkMsg) WalkMsg {
			return WalkMsg{Src: a.Src, Count: a.Count + b.Count}
		},
		key: func(m WalkMsg) uint64 { return uint64(m.Src) },
	}
	massKind = msgKind[MassMsg]{codec: massCodec{}}
)

// RunBatch implements Job. In the default mode, `workload` walks start at
// every vertex; in source-subset mode, the next `workload` sources each
// start WalksPerNode walks.
func (j *BPPRJob) RunBatch(run *sim.Run, workload int, batchIdx int) ([]int64, error) {
	if workload <= 0 {
		return make([]int64, j.part.NumMachines()), nil
	}
	b := j.nextBatch(workload)
	var err error
	if j.cfg.Mirror {
		err = runBatch(&j.pushEng, j.g, j.part, newBpprPush(b), run, j.cfg.exec(), batchIdx, massKind)
	} else {
		err = runBatch(&j.mcEng, j.g, j.part, newBpprMC(b), run, j.cfg.exec(), batchIdx, walkKind)
	}
	if err != nil {
		return nil, fmt.Errorf("tasks: BPPR batch %d: %w", batchIdx, err)
	}
	return b.Finish(), nil
}

// NextBatch returns the Pregel-based Monte-Carlo vertex program of the
// job's next batch (the fractional-push variant of Mirror configurations
// runs through RunBatch only).
func (j *BPPRJob) NextBatch(workload int) Batch[WalkMsg] { return newBpprMC(j.nextBatch(workload)) }

// bpprBatch is what both BPPR programs are built on: the walks each origin
// starts, the batch's origins, and the job bookkeeping around the run.
type bpprBatch struct {
	job     *BPPRJob
	w       int
	sources map[graph.VertexID]bool // nil: every vertex is an origin
	cut     int                     // sources this batch takes off cfg.Sources
}

func (j *BPPRJob) nextBatch(workload int) *bpprBatch {
	for m := range j.baseline {
		j.baseline[m] = int64(j.endpoints[m].n)
	}
	b := &bpprBatch{job: j, w: workload}
	if len(j.cfg.Sources) > 0 {
		batch := nextSources(j.cfg.Sources, j.sourcesDone, workload)
		b.w, b.cut = j.cfg.WalksPerNode, len(batch)
		b.sources = make(map[graph.VertexID]bool, len(batch))
		for _, s := range batch {
			b.sources[s] = true
		}
	}
	return b
}

// Finish implements Batch: the endpoints already accumulated into the job,
// so only the launch bookkeeping is left.
func (b *bpprBatch) Finish() []int64 {
	j := b.job
	if b.sources != nil {
		j.sourcesDone += b.cut
		j.launched = j.cfg.WalksPerNode
	} else {
		j.launched += b.w
	}
	resid := make([]int64, len(j.endpoints))
	for m := range resid {
		resid[m] = b.StateEntries(m)
	}
	return resid
}

// StateEntries implements vcapi.StateReporter: endpoint entries created by
// the current batch.
func (b *bpprBatch) StateEntries(machine int) int64 {
	return int64(b.job.endpoints[machine].n) - b.job.baseline[machine]
}

// AppendState implements vcapi.StateSnapshotter: the batch-accumulated
// endpoint tables. Both programs' scratch (multinomial buckets, per-source
// accumulators) is drained within every Compute call and needs no snapshot.
func (b *bpprBatch) AppendState(buf []byte) ([]byte, error) { return b.job.appendEndpoints(buf), nil }

// LoadState implements vcapi.StateSnapshotter.
func (b *bpprBatch) LoadState(data []byte) error { return b.job.loadEndpoints(data) }

// bpprMC is the Pregel-based Monte-Carlo program: each message moves a
// counted bundle of walks one step (§3, Pregel (BPPR)).
type bpprMC struct {
	*bpprBatch
	// scratch[m] is machine m's multinomial bucket buffer: machines
	// compute concurrently, so each needs its own.
	scratch [][]int64
}

func newBpprMC(b *bpprBatch) *bpprMC {
	return &bpprMC{bpprBatch: b, scratch: make([][]int64, b.job.part.NumMachines())}
}

func (p *bpprMC) Seed(ctx vcapi.Context[WalkMsg]) {
	for _, v := range ctx.OwnedVertices() {
		if p.sources != nil && !p.sources[v] {
			continue
		}
		p.step(ctx, v, v, int64(p.w))
	}
}

func (p *bpprMC) Compute(ctx vcapi.Context[WalkMsg], v graph.VertexID, msgs []WalkMsg) {
	for _, m := range msgs {
		p.step(ctx, v, m.Src, int64(m.Count))
	}
}

// step stops a Binomial(count, α) portion of the walks at v and moves the
// rest to uniformly random neighbors.
func (p *bpprMC) step(ctx vcapi.Context[WalkMsg], v, src graph.VertexID, count int64) {
	j := p.job
	rng := ctx.RNG()
	ns := ctx.Graph().Neighbors(v)
	stops := rng.Binomial(count, j.cfg.Alpha)
	if len(ns) == 0 {
		stops = count
	}
	if stops > 0 {
		j.addEndpoint(ctx.Machine(), src, v, float64(stops))
	}
	rest := count - stops
	if rest <= 0 {
		return
	}
	if rest*4 <= int64(len(ns)) {
		// Few walks, many neighbors: route each walk individually.
		for i := int64(0); i < rest; i++ {
			ctx.Send(ns[rng.Intn(len(ns))], WalkMsg{Src: src, Count: 1})
		}
		return
	}
	mach := ctx.Machine()
	if cap(p.scratch[mach]) < len(ns) {
		p.scratch[mach] = make([]int64, len(ns))
	}
	buckets := p.scratch[mach][:len(ns)]
	rng.Multinomial(rest, buckets)
	for i, c := range buckets {
		if c > 0 {
			ctx.Send(ns[i], WalkMsg{Src: src, Count: int32(c)})
		}
	}
}

// bpprPush is the mirror-mechanism-based program (§3, Pregel-Mirror
// (BPPR)): walk mass is fractionalized over neighbors and disseminated via
// the broadcast interface, so one common message serves all neighbors.
type bpprPush struct {
	*bpprBatch
	// Per-machine, per-source aggregation scratch indexed by source vertex
	// id; accKeys preserves insertion order so execution stays
	// deterministic. Per machine because machines compute concurrently.
	acc     [][]float64
	accKeys [][]graph.VertexID
}

func newBpprPush(b *bpprBatch) *bpprPush {
	k := b.job.part.NumMachines()
	return &bpprPush{bpprBatch: b, acc: make([][]float64, k), accKeys: make([][]graph.VertexID, k)}
}

func (p *bpprPush) Seed(ctx vcapi.Context[MassMsg]) {
	for _, v := range ctx.OwnedVertices() {
		if p.sources != nil && !p.sources[v] {
			continue
		}
		p.push(ctx, v, v, float64(p.w))
	}
}

func (p *bpprPush) Compute(ctx vcapi.Context[MassMsg], v graph.VertexID, msgs []MassMsg) {
	mach := ctx.Machine()
	if p.acc[mach] == nil {
		p.acc[mach] = make([]float64, ctx.Graph().NumVertices())
	}
	acc := p.acc[mach]
	keys := p.accKeys[mach]
	for _, m := range msgs {
		if acc[m.Src] == 0 {
			keys = append(keys, m.Src)
		}
		acc[m.Src] += float64(m.Mass)
	}
	for _, src := range keys {
		p.push(ctx, v, src, acc[src])
		acc[src] = 0
	}
	p.accKeys[mach] = keys[:0]
}

// push parks α·mass at v and broadcasts the remainder, fractionalized over
// v's neighbors. Sub-threshold remainders are parked at v so that the total
// mass per source is conserved exactly.
func (p *bpprPush) push(ctx vcapi.Context[MassMsg], v, src graph.VertexID, mass float64) {
	j := p.job
	ns := ctx.Graph().Neighbors(v)
	stop := j.cfg.Alpha * mass
	rest := mass - stop
	if len(ns) == 0 || rest < j.cfg.PruneThreshold {
		stop = mass
		rest = 0
	}
	if stop > 0 {
		j.addEndpoint(ctx.Machine(), src, v, stop)
	}
	if rest > 0 {
		ctx.Broadcast(v, MassMsg{Src: src, Mass: float32(rest / float64(len(ns)))})
	}
}
