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
	// Workers sets the engine worker-pool size (see engine.Options.Workers);
	// results are identical for every value.
	Workers int
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
	endpoints []endpointTable
	baseline  []int64 // entry counts at the start of the current batch
	launched  int     // walks per node launched so far across batches

	// The engine that runs every synchronous batch (see runBatch): mcEng
	// for the Monte-Carlo program, pushEng for the mirror variant.
	mcEng   *engine.Engine[WalkMsg]
	pushEng *engine.Engine[MassMsg]
	// scratch[m] is machine m's Compute scratch, for every batch.
	scratch []bpprScratch
}

// NewBPPR constructs a BPPR job over the given graph partition. It panics
// if both Mirror and Async are set: the GraphLab family has no mirroring.
func NewBPPR(g *graph.Graph, part *graph.Partition, cfg BPPRConfig) *BPPRJob {
	if cfg.Mirror && cfg.Async {
		panic("tasks: BPPR cannot combine Mirror with Async")
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
		scratch:   make([]bpprScratch, part.NumMachines()),
	}
}

// Name implements Job.
func (j *BPPRJob) Name() string { return "BPPR" }

// TotalWorkload implements Job: walks per node.
func (j *BPPRJob) TotalWorkload() int { return j.cfg.WalksPerNode }

// MemModel implements Job: an endpoint entry is a (source, vertex, count)
// triple (~16 bytes in the C++ systems' hash tables).
func (j *BPPRJob) MemModel() sim.TaskMemModel {
	return sim.TaskMemModel{StateBytesPerEntry: 16, ResidualBytesPerEntry: 16}
}

// WalksLaunched returns the per-node walks launched so far.
func (j *BPPRJob) WalksLaunched() int { return j.launched }

// Estimate returns the current PPR estimate of target with respect to src:
// the fraction of src's walks that stopped at target.
func (j *BPPRJob) Estimate(src, target graph.VertexID) float64 {
	if j.launched == 0 {
		return 0
	}
	m := j.part.Owner(target)
	return j.endpoints[m].get(pairKey(src, target)) / float64(j.launched)
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

// addStops adds each stop's mass from its source at v to machine's endpoint
// table, in order: one tight pass that ends a Compute call, after its
// sends, so the table's index and entry misses come back to back. A call
// lists its stops in message order, so the table records and changes
// entries exactly as adding each at its message would.
func (j *BPPRJob) addStops(machine int, v graph.VertexID, stops []walkMass) {
	t := &j.endpoints[machine]
	for _, s := range stops {
		e, _ := t.ref(pairKey(s.src, v))
		e.mass += s.mass
	}
}

// appendEndpoints appends the per-machine endpoint tables to buf, each as
// its entry count and its entries in first-insertion order — one scan, no
// sort — and marks them. That order is fixed by the run: machine m's Seed
// and Compute calls alone write table m, in the same order for every worker
// count and backend, and a restore rebuilds it in file order. It is the
// checkpointed state of both BPPR variants (the baselines are set at batch
// start).
func (j *BPPRJob) appendEndpoints(buf []byte) []byte { return j.appendTables(buf, false) }

// appendTables is appendEndpoints, or with delta what changed since the
// tables' last mark: per machine the entry count, the number of changed
// entries, their positions and masses in first-change order, then the
// entries since.
func (j *BPPRJob) appendTables(buf []byte, delta bool) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(j.endpoints)))
	for m := range j.endpoints {
		t, from := &j.endpoints[m], 0
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.n))
		if delta {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.dirty)))
			for _, pos := range t.dirty {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(pos))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.at(pos).mass))
			}
			from = t.saved
		}
		for c := from / endpointChunk; c < len(t.chunks); c++ {
			for _, e := range t.chunks[c][max(from-c*endpointChunk, 0):] {
				buf = binary.LittleEndian.AppendUint64(buf, e.key)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.mass))
			}
		}
		t.mark()
	}
	return buf
}

// loadEndpoints restores the endpoint tables from an appendEndpoints image,
// discarding any entries recorded after the checkpoint was cut. An image
// that does not hold exactly the job's machines' tables, repeats a pair or
// records a mass that is not positive is an error wrapping ckpt.ErrCorrupt,
// and leaves the tables as they were.
func (j *BPPRJob) loadEndpoints(data []byte) error { return j.loadTables(data, false) }

// loadTables is loadEndpoints, or with delta applies an appendTables delta
// to the tables as of their last mark, listing its changes as the calls
// that made them did; a delta that also shrinks a table or changes an entry
// twice or unsaved is corrupt, and leaves the tables undefined.
func (j *BPPRJob) loadTables(data []byte, delta bool) error {
	c := rec.NewCursor(data, ckpt.ErrCorrupt)
	if int(c.U32()) != len(j.endpoints) {
		return c.Fail("tasks: BPPR snapshot does not hold the job's %d machines", len(j.endpoints))
	}
	tbls := j.endpoints
	if !delta {
		tbls = make([]endpointTable, len(j.endpoints))
	}
	for m := range tbls {
		t := &tbls[m]
		count, changed := c.U64(), uint64(0)
		if delta {
			changed = c.U64()
		}
		if count < uint64(t.n) || count-uint64(t.n) > uint64(c.Len()/16) || changed > uint64(c.Len()/12) {
			return c.Fail("tasks: BPPR snapshot claims %d endpoints, %d changed, for machine %d in %d bytes", count, changed, m, c.Len())
		}
		for range changed {
			pos, mass := c.U32(), math.Float64frombits(c.U64())
			if int(pos) >= t.saved || !t.touch(int32(pos)) || !(mass > 0) {
				return c.Fail("tasks: BPPR delta changes entry %d of machine %d twice, unsaved or to mass %v", pos, m, mass)
			}
			t.at(int32(pos)).mass = mass
		}
		for range count - uint64(t.n) {
			key, mass := c.U64(), math.Float64frombits(c.U64())
			e, fresh := t.ref(key)
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

// marked marks the endpoint tables, whatever err a load returned.
func (j *BPPRJob) marked(err error) error {
	for m := range j.endpoints {
		j.endpoints[m].mark()
	}
	return err
}

// exec is the execution half of the config.
func (c BPPRConfig) exec() execConfig {
	return execConfig{c.Mirror, c.Async, c.Combine, c.Seed, c.Workers,
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

// RunBatch implements Job: `workload` walks start at every vertex.
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

// bpprBatch is what both BPPR programs are built on: the walks each vertex
// starts, and the job bookkeeping around the run.
type bpprBatch struct {
	job *BPPRJob
	w   int
}

// bpprScratch is one machine's Compute scratch, for either program; every
// Compute call leaves it drained. Machines compute concurrently, so each
// needs its own, and as a Compute call writes its machine's slice headers,
// a record fills whole 64-byte cache lines: two pool workers never write
// one line.
type bpprScratch struct {
	stops   []walkMass // the call's walks stopped at its vertex, in message order
	buckets []int64    // Monte-Carlo: multinomial buckets
	masses  []walkMass // mirror: the call's mass per source, in first-message order
	slot    []int32    // mirror: per source vertex, its index in masses + 1
	_       [32]byte
}

// walkMass is walk mass from src: stopped at, or arrived at, the vertex of
// a Compute call.
type walkMass struct {
	src  graph.VertexID
	mass float64
}

func (j *BPPRJob) nextBatch(workload int) *bpprBatch {
	for m := range j.baseline {
		j.baseline[m] = int64(j.endpoints[m].n)
	}
	return &bpprBatch{job: j, w: workload}
}

// Finish implements Batch: the endpoints already accumulated into the job,
// so only the launch bookkeeping is left.
func (b *bpprBatch) Finish() []int64 {
	j := b.job
	j.launched += b.w
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
// endpoint tables. Both programs' scratch (stop lists, multinomial buckets,
// per-source sums) is drained within every Compute call and needs no
// snapshot.
func (b *bpprBatch) AppendState(buf []byte) ([]byte, error) { return b.job.appendEndpoints(buf), nil }

// LoadState implements vcapi.StateSnapshotter.
func (b *bpprBatch) LoadState(data []byte) error { return b.job.marked(b.job.loadEndpoints(data)) }

// AppendDelta implements vcapi.DeltaSnapshotter: the endpoint entries
// recorded, and those whose mass changed, since the last snapshot or load.
func (b *bpprBatch) AppendDelta(buf []byte) ([]byte, error) {
	return b.job.appendTables(buf, true), nil
}

// LoadDelta implements vcapi.DeltaSnapshotter.
func (b *bpprBatch) LoadDelta(data []byte) error { return b.job.marked(b.job.loadTables(data, true)) }

// bpprMC is the Pregel-based Monte-Carlo program: each message moves a
// counted bundle of walks one step (§3, Pregel (BPPR)).
type bpprMC struct{ *bpprBatch }

func newBpprMC(b *bpprBatch) *bpprMC { return &bpprMC{b} }

func (p *bpprMC) Seed(ctx vcapi.Context[WalkMsg]) {
	for _, v := range ctx.OwnedVertices() {
		p.Compute(ctx, v, []WalkMsg{{Src: v, Count: int32(p.w)}})
	}
}

// Compute stops a Binomial(count, α) portion of each message's walks at v
// and moves the rest to uniformly random neighbors, then records the stops
// (see addStops).
func (p *bpprMC) Compute(ctx vcapi.Context[WalkMsg], v graph.VertexID, msgs []WalkMsg) {
	mach := ctx.Machine()
	s := &p.job.scratch[mach]
	rng, ns, alpha := ctx.RNG(), ctx.Graph().Neighbors(v), p.job.cfg.Alpha
	stops := s.stops[:0]
	for _, m := range msgs {
		count := int64(m.Count)
		stopped := rng.Binomial(count, alpha)
		if len(ns) == 0 {
			stopped = count
		}
		if stopped > 0 {
			stops = append(stops, walkMass{m.Src, float64(stopped)})
		}
		rest := count - stopped
		if rest <= 0 {
			continue
		}
		if rest*4 <= int64(len(ns)) {
			// Few walks, many neighbors: route each walk individually.
			for range rest {
				ctx.Send(ns[rng.Intn(len(ns))], WalkMsg{Src: m.Src, Count: 1})
			}
			continue
		}
		if cap(s.buckets) < len(ns) {
			s.buckets = make([]int64, len(ns))
		}
		buckets := s.buckets[:len(ns)]
		rng.Multinomial(rest, buckets)
		for i, c := range buckets {
			if c > 0 {
				ctx.Send(ns[i], WalkMsg{Src: m.Src, Count: int32(c)})
			}
		}
	}
	p.job.addStops(mach, v, stops)
	s.stops = stops[:0]
}

// bpprPush is the mirror-mechanism-based program (§3, Pregel-Mirror
// (BPPR)): walk mass is fractionalized over neighbors and disseminated via
// the broadcast interface, so one common message serves all neighbors.
type bpprPush struct{ *bpprBatch }

func newBpprPush(b *bpprBatch) *bpprPush { return &bpprPush{b} }

func (p *bpprPush) Seed(ctx vcapi.Context[MassMsg]) {
	for _, v := range ctx.OwnedVertices() {
		p.spread(ctx, v, []walkMass{{v, float64(p.w)}})
	}
}

// Compute sums the messages' mass per source, sources in first-message
// order, and spreads it.
func (p *bpprPush) Compute(ctx vcapi.Context[MassMsg], v graph.VertexID, msgs []MassMsg) {
	s := &p.job.scratch[ctx.Machine()]
	if s.slot == nil {
		s.slot = make([]int32, ctx.Graph().NumVertices())
	}
	masses := s.masses[:0]
	for _, m := range msgs {
		i := s.slot[m.Src]
		if i == 0 {
			masses = append(masses, walkMass{src: m.Src})
			i = int32(len(masses))
			s.slot[m.Src] = i
		}
		masses[i-1].mass += float64(m.Mass)
	}
	for _, m := range masses {
		s.slot[m.src] = 0
	}
	p.spread(ctx, v, masses)
	s.masses = masses[:0]
}

// spread parks α of each source's mass at v and broadcasts the rest,
// fractionalized over v's neighbors, in masses order, then records the
// parked mass (see addStops). A sub-threshold remainder is parked at v too,
// so the total mass per source is conserved exactly.
func (p *bpprPush) spread(ctx vcapi.Context[MassMsg], v graph.VertexID, masses []walkMass) {
	mach := ctx.Machine()
	s := &p.job.scratch[mach]
	ns := ctx.Graph().Neighbors(v)
	alpha, prune := p.job.cfg.Alpha, p.job.cfg.PruneThreshold
	stops := s.stops[:0]
	for _, m := range masses {
		stop := alpha * m.mass
		rest := m.mass - stop
		if len(ns) == 0 || rest < prune {
			stop, rest = m.mass, 0
		}
		if stop > 0 {
			stops = append(stops, walkMass{m.src, stop})
		}
		if rest > 0 {
			ctx.Broadcast(v, MassMsg{Src: m.src, Mass: float32(rest / float64(len(ns)))})
		}
	}
	p.job.addStops(mach, v, stops)
	s.stops = stops[:0]
}
