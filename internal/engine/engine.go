// Package engine implements the synchronous vertex-centric ("think like a
// vertex") execution model of Pregel and its descendants: computation
// proceeds in supersteps; in each superstep every vertex with pending
// messages runs a user-defined compute function that reads its messages and
// sends new ones; execution halts when no messages remain in flight.
//
// The engine executes over a simulated multi-machine cluster: vertices are
// spread across K logical machines by a graph.Partition, message traffic is
// classified as machine-local or remote, and per-superstep statistics are
// reported to a sim.Run, which prices them with the paper-calibrated cost
// model. Supersteps execute the K logical machines on a worker pool
// (Options.Workers; 1 runs every phase on the calling goroutine), and
// every run is fully deterministic regardless of worker count: each machine
// owns its SplitMix64 RNG stream, outbox rows and counters, and
// cross-machine merges always walk machines in index order, so results,
// message ordering and round statistics are reproducible bit-for-bit.
//
// One superstep loop (Run) serves both backends — the in-memory outbox
// matrix and the out-of-core partition files (see OOCOptions) — and one
// halting rule ends it: no message in flight.
//
// The steady-state superstep core is allocation-free and map-free:
// messages route through a K×K matrix of outbox rows (row [src][dst]
// buffers machine src's messages to machine dst's vertices) built from
// fixed-size chunks that cycle through per-machine free lists, delivery
// runs one independent counting sort per destination machine over small
// dense-rank count arrays, and all scratch (chunks, counts, offsets, inbox
// storage, fold tables) persists across rounds — and, through Reset,
// across the batches of one job. Every send is a row append; a combiner
// folds each vertex's segment at delivery (see Options.Combiner).
//
// The engine also implements the two implementation families of §3:
// point-to-point sends (Pregel-based systems) via Context.Send, and the
// broadcast interface of Pregel+'s mirroring mechanism via
// Context.Broadcast, where high-degree vertices transmit one wire message
// per mirror machine instead of one per neighbor.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"vcmt/internal/ckpt"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/randx"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// Program is the user-defined vertex program (see vcapi.Program).
type Program[M any] = vcapi.Program[M]

// Combiner merges two messages addressed to the same vertex (Pregel's
// combiner contract: the operation must be commutative and associative,
// e.g. summing walk counts or taking a minimum). The engine additionally
// requires exact operations — selection (min/max) or integer sums — so
// that the fold's result does not depend on how a backend groups it; every
// combiner in this repository qualifies. The wire-level effect of combining
// across machines is modelled by the system profile's Combines flag.
type Combiner[M any] func(a, b M) M

// Options tunes an engine run. It carries no overload switch: a run past
// the cost model's cutoff completes, and batch.Run applies the paper's
// 6000 s rule between batches.
type Options[M any] struct {
	// Weight reports logical message multiplicity; nil means 1 per message.
	Weight vcapi.WeightFunc[M]
	// Combiner, when set, merges a vertex's incoming messages that share a
	// CombinerKey into one (without a key a run returns ErrUnkeyedCombiner).
	// Messages are buffered raw and each vertex's segment is folded once, at
	// delivery, left to right in (source machine, emission) order (see
	// foldSegment), on both backends alike. Nothing merges at send time:
	// under hash partitioning ≈ 0.2 % of messages share a (vertex, key) with
	// an earlier one from the same machine (DESIGN.md §14).
	Combiner Combiner[M]
	// CombinerKey is the fold's key, a pure function of the payload:
	// multi-source tasks use the source vertex, so per-source streams stay
	// separate, and a constant key folds a whole segment into one.
	CombinerKey func(m M) uint64
	// MaxRounds bounds the superstep count (0 means the default of 10000,
	// which every batch task uses; PageRank sets its iteration count + 2).
	MaxRounds int
	// Seed makes per-machine RNG streams deterministic.
	Seed uint64
	// Workers sets the superstep worker-pool size: 0 means GOMAXPROCS and 1
	// runs fully sequentially. Results are bit-identical for every value.
	// OOC forces sequential execution (partition files are one
	// emission-ordered byte stream).
	Workers int
	// OOC selects the out-of-core execution backend (see OOCOptions):
	// streamed edge/message partition files and a bounded memory window in
	// place of in-memory outboxes and inboxes. Forces sequential execution;
	// results are bit-identical to the in-memory engine.
	OOC *OOCOptions
	// Checkpoint enables periodic superstep checkpointing (see
	// CheckpointOptions). The program must implement vcapi.StateSnapshotter.
	Checkpoint *CheckpointOptions
	// Codec serializes message payloads into checkpoints and partition
	// files; Checkpoint, OOC and a machine engine's Snapshot and Restore
	// require it.
	Codec Codec[M]
	// Fault injects deterministic failures. The engine honors crash events
	// (any crash rolls the single-process run back to its last checkpoint
	// and silently replays forward); drop/delay/slow events are wall-clock
	// faults that only the rpcrt runtime exercises.
	Fault *fault.Plan
}

// ErrMaxRounds is returned when the superstep bound is hit before the
// computation drains.
var ErrMaxRounds = errors.New("engine: maximum superstep count reached")

// ErrUnkeyedCombiner is returned by a run whose Options set a Combiner
// without a CombinerKey.
var ErrUnkeyedCombiner = errors.New("engine: a Combiner needs a CombinerKey")

// Engine executes one Program over one graph partition.
type Engine[M any] struct {
	g    *graph.Graph
	part *graph.Partition
	prog Program[M]
	run  *sim.Run
	opts Options[M]

	// k caches part.NumMachines(); workers is the resolved pool size.
	k       int
	workers int
	// ctxs holds one Context per machine so parallel Seed/Compute calls
	// never share a mutable context.
	ctxs []*Context[M]

	vertsByMachine [][]graph.VertexID
	// owners[v] is v's machine and rank[v] its dense index within that
	// machine (its position in vertsByMachine): precomputed tables that
	// replace per-message Partition.Owner closure calls on the hot path
	// and give delivery small L1-resident per-machine count arrays.
	owners []int32
	rank   []int32
	// mirrorSpan[v] is the number of machines (other than v's own) hosting
	// at least one neighbor of v; computed lazily for mirror mode.
	mirrorSpan []int32
	mirrorOnce sync.Once

	// outRows is the k×k outbox matrix for the current superstep: row
	// src*k+dst buffers machine src's messages to machine dst's vertices,
	// in emission order, so delivery runs one independent counting sort per
	// destination. Rows are chunk lists (see outbox.go); free[m] is the
	// free list that the rows machine m writes draw from and route refills.
	outRows []outRow[M]
	free    [][]*chunk[M]
	// owed[m] is what machine m's rows must hold at the next route: the
	// envelopes it sent since the last one (see rollCounters). Conservation
	// is checked at every barrier.
	owed []int64

	// inbox holds the delivered payloads, laid out as one contiguous
	// region per destination machine (regionStart[d]..regionStart[d+1]).
	// Within machine d's region, local vertex i's segment is
	// moffs[d][i]..moffs[d][i+1] (relative to the region start). mcount is
	// the per-machine histogram/cursor scratch; mcount and moffs exist for
	// local machines only. All of it persists across rounds.
	inbox       []M
	regionStart []int32
	mcount      [][]int32
	moffs       [][]int32
	// machLoad and machOrder implement load-ordered (LPT) scheduling:
	// delivery and compute tasks are handed to the pool largest-first so a
	// skewed machine starts first and stragglers shrink. machOrder is a
	// permutation of local. Ordering never affects results — all
	// cross-machine state is partitioned.
	machLoad  []int64
	machOrder []int32

	// foldTabs is the keyed fold's scratch, one table per destination
	// machine (see foldTable).
	foldTabs []foldTable

	// pool is the persistent phase-dispatch worker pool (nil until the
	// first parallel phase; see parallel.go).
	pool *phasePool

	rngs     []machineRNG
	counters []machineCounters
	rounds   int

	// ooc is the out-of-core backend, live while ooc.runner is set; its
	// scratch persists across runs like inbox. oocPartitions survives the
	// run (see OOCPartitions).
	ooc           oocState[M]
	oocPartitions int

	// Checkpoint/recovery state. lastCkptRounds identifies the latest
	// checkpoint; ckptSimSeconds is the simulated clock right after it was
	// priced (so a crash knows how much simulated work it loses). replayTo
	// marks the pre-crash round during silent replay: supersteps up to it
	// re-execute without re-reporting to the sim.Run. snapBuf holds the
	// latest Snapshot's sections and persists across runs like inbox.
	ckptMgr        *ckpt.Manager
	snapBuf        []byte
	lastCkptRounds int
	ckptSimSeconds float64
	replayTo       int
	recoveries     int
	// local lists, ascending, the machines this engine executes: all k, or
	// one for a machine engine (see NewMachine); seeding, delivery, the fold
	// and compute iterate it. Last, so the hot fields keep their offsets.
	local []int32
}

type envelope[M any] struct {
	dst     graph.VertexID
	payload M
}

// machineCounters is one machine's per-superstep tallies: what it sent,
// what it received and how many of its vertices ran. The pool worker
// running the machine writes them per message and per vertex, so a record
// fills whole 64-byte cache lines: two workers never write one line.
type machineCounters struct {
	sent                      sendCounters
	recvLogical, recvPhysical int64
	active                    int64
}

type sendCounters struct {
	logical, physical, remoteLogical, remotePhysical int64
	// fanout is the envelopes buffered beyond physical: a mirrored
	// broadcast is one wire message per mirror machine but one envelope
	// per neighbor.
	fanout int64
}

// machineRNG is one machine's random stream, alone in its cache line like
// machineCounters: a program draws from it per message.
type machineRNG struct {
	randx.RNG
	_ [56]byte
}

// New constructs an engine. run may be nil when only the computation result
// matters (tests); statistics are then discarded. New builds everything
// that follows from (g, part) alone and leaves the rest to Reset, so a
// fresh engine and a re-armed one start a run from the same state by the
// same code.
func New[M any](g *graph.Graph, part *graph.Partition, prog Program[M], run *sim.Run, opts Options[M]) *Engine[M] {
	local := make([]int32, part.NumMachines())
	for m := range local {
		local[m] = int32(m)
	}
	return newEngine(g, part, local, prog, run, opts)
}

func newEngine[M any](g *graph.Graph, part *graph.Partition, local []int32, prog Program[M], run *sim.Run, opts Options[M]) *Engine[M] {
	k := part.NumMachines()
	n := g.NumVertices()
	e := &Engine[M]{
		g: g, part: part,
		k:              k,
		local:          local,
		vertsByMachine: make([][]graph.VertexID, k),
		owners:         make([]int32, n),
		rank:           make([]int32, n),
		outRows:        make([]outRow[M], k*k),
		free:           make([][]*chunk[M], k),
		owed:           make([]int64, k),
		regionStart:    make([]int32, k+1),
		mcount:         make([][]int32, k),
		moffs:          make([][]int32, k),
		machLoad:       make([]int64, k),
		machOrder:      make([]int32, len(local)),
		rngs:           make([]machineRNG, k),
		counters:       make([]machineCounters, k),
		ctxs:           make([]*Context[M], k),
	}
	for v := 0; v < n; v++ {
		m := part.Owner(graph.VertexID(v))
		e.owners[v] = int32(m)
		e.rank[v] = int32(len(e.vertsByMachine[m]))
		e.vertsByMachine[m] = append(e.vertsByMachine[m], graph.VertexID(v))
	}
	for m := 0; m < k; m++ {
		e.ctxs[m] = &Context[M]{e: e, machine: m, sc: &e.counters[m].sent, rows: e.outRows[m*k : (m+1)*k]}
	}
	for _, m := range local {
		nl := len(e.vertsByMachine[m])
		e.mcount[m] = make([]int32, nl)
		e.moffs[m] = make([]int32, nl+1)
	}
	for r := range e.outRows {
		e.outRows[r].free = &e.free[r/k]
	}
	// A released engine's free lists, dealt to the local machines in turn.
	r := recycler[M]().Get()
	for i, l := range r.free {
		m := local[i%len(local)]
		e.free[m] = append(e.free[m], l...)
	}
	e.inbox = r.inbox
	e.Reset(prog, run, opts)
	return e
}

// Reset re-arms the engine to run prog from superstep 1 under opts, exactly
// as a fresh New(g, part, prog, run, opts) would, while keeping what a
// finished run leaves that depends only on the graph and the partition or
// is pure capacity: the routing tables, the chunk population, the inbox
// (which out-of-core runs sort into too), the fold tables, the out-of-core
// encode scratch and the snapshot buffer. RNG streams, counters and
// checkpoint state start over, and each run opens its own partition files.
// One engine per job, Reset per batch: a job of many small batches then
// pays construction once.
func (e *Engine[M]) Reset(prog Program[M], run *sim.Run, opts Options[M]) {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 10000
	}
	k := e.k
	e.prog, e.run, e.opts = prog, run, opts
	e.workers = min(effectiveWorkers(opts), len(e.local))

	// Whatever an abandoned run left buffered goes back to the free lists.
	for r := range e.outRows {
		e.outRows[r].release()
	}

	if opts.Combiner != nil && e.foldTabs == nil {
		e.foldTabs = make([]foldTable, k)
	}
	for m := 0; m < k; m++ {
		e.rngs[m].SetState(vcapi.MachineSeed(opts.Seed, m))
		e.counters[m], e.owed[m] = machineCounters{}, 0
	}
	e.rounds = 0
	e.oocPartitions = 0
	e.ckptMgr, e.lastCkptRounds, e.ckptSimSeconds = nil, 0, 0
	e.replayTo, e.recoveries = 0, 0
}

// Release hands a finished job's message buffers — every chunk, the inbox
// and the out-of-core inbox — to the recyclers the next engine is built
// from. A later run allocates afresh; a nil engine releases nothing.
func (e *Engine[M]) Release() {
	if e == nil {
		return
	}
	r := &released[M]{inbox: e.inbox[:0]}
	for i := range e.outRows {
		e.outRows[i].release()
		e.outRows[i].chunks = nil
	}
	for m := range e.free {
		r.free = append(r.free, e.free[m])
		e.free[m] = nil
	}
	e.inbox = nil
	recycler[M]().Put(r)
	oocInboxes.Put(e.ooc.ib) // a nil one is pruned at the next Put
	e.ooc.ib = nil
}

// Rounds returns the number of supersteps executed so far.
func (e *Engine[M]) Rounds() int { return e.rounds }

// Graph returns the graph under computation.
func (e *Engine[M]) Graph() *graph.Graph { return e.g }

// Partition returns the vertex partition.
func (e *Engine[M]) Partition() *graph.Partition { return e.part }

// Workers returns the resolved worker-pool size for this run.
func (e *Engine[M]) Workers() int { return e.workers }

func (e *Engine[M]) mirrored() bool {
	if e.run == nil {
		return false
	}
	return e.run.Config().System.Mirror
}

// ensureMirrorSpan computes mirrorSpan once; sync.Once because parallel
// Broadcast calls may race to initialize it.
func (e *Engine[M]) ensureMirrorSpan() {
	e.mirrorOnce.Do(func() {
		e.mirrorSpan = make([]int32, e.g.NumVertices())
		seen := make([]int, e.k)
		epoch := 0
		for v := 0; v < e.g.NumVertices(); v++ {
			epoch++
			own := e.owners[v]
			span := int32(0)
			for _, u := range e.g.Neighbors(graph.VertexID(v)) {
				m := e.owners[u]
				if m != own && seen[m] != epoch {
					seen[m] = epoch
					span++
				}
			}
			e.mirrorSpan[v] = span
		}
	})
}

// pending reports whether any message is in flight: buffered in an outbox
// row, or routed to a partition file out of core. It is the engine's only
// halting rule.
func (e *Engine[M]) pending() bool {
	if e.ooc.runner != nil {
		return e.ooc.runner.Pending()
	}
	for r := range e.outRows {
		if e.outRows[r].n > 0 {
			return true
		}
	}
	return false
}

// Run executes supersteps until no messages remain in flight or the round
// bound is hit, which returns ErrMaxRounds. A run past the cost model's
// cutoff runs on: the overload is visible on the sim.Run, and batch.Run
// stops between batches. Both backends run this loop; they differ only in
// step and pending.
func (e *Engine[M]) Run() error {
	if err := e.initOOC(); err != nil {
		return err
	}
	defer e.closeOOC()
	if err := e.initCheckpoints(); err != nil {
		return err
	}
	defer e.stopPool()
	if err := e.Step(); err != nil {
		return err
	}
	if err := e.maybeCheckpoint(); err != nil {
		return err
	}

	for e.pending() {
		if e.rounds >= e.opts.MaxRounds {
			return fmt.Errorf("%w (%d)", ErrMaxRounds, e.opts.MaxRounds)
		}
		if machine, ok := e.crashPending(); ok {
			if e.run != nil {
				e.run.ObserveCrash(e.rounds+1, machine)
			}
			if err := e.recoverFromCheckpoint(); err != nil {
				return err
			}
			continue
		}
		if err := e.Step(); err != nil {
			return err
		}
		if err := e.maybeCheckpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes the next superstep and closes it at the barrier. The first
// seeds: "In the first round, each of the W walks stops with α probability
// and ... a message is sent" (§3). Out of core seeding runs against the
// resident graph — a Seed call per machine cannot interleave with window
// loads — so the bounded window starts at the first delivery superstep,
// exactly where message volume lives. Every later one routes the buffered
// messages into the inbox and runs the local machines' Compute calls, or,
// out of core, seals the partition files and streams the partitions through
// the window. Run's loop is Step plus the halting rule, checkpoints and
// recovery; a machine engine's driver calls it directly (see NewMachine).
func (e *Engine[M]) Step() error {
	switch {
	case e.rounds == 0:
		if e.opts.Combiner != nil && e.opts.CombinerKey == nil {
			return ErrUnkeyedCombiner
		}
		e.runPhase(phaseSeed, len(e.local))
	case e.ooc.runner != nil:
		if err := e.stepOOC(); err != nil {
			return err
		}
	default:
		e.deliver()
		e.runPhase(phaseCompute, len(e.machOrder))
	}
	e.observeRound()
	return nil
}

// computeMachine runs the Compute calls of machine m's ranks lo..hi-1 (out
// of core, one partition's share) for the current superstep. All state it
// touches is owned by machine m (context, RNG, outbox rows, counters) or is
// a read-only inbox segment of an owned vertex, so machines may run
// concurrently.
func (e *Engine[M]) computeMachine(m, lo, hi int) {
	ctx := e.ctxs[m]
	mc := &e.counters[m]
	before := mc.recvPhysical
	offs := e.moffs[m][lo : hi+1]
	base := e.regionStart[m]
	weigh := e.opts.Weight
	for i, v := range e.vertsByMachine[m][lo:hi] {
		lo, hi := offs[i], offs[i+1]
		if lo == hi {
			continue
		}
		ctx.vertex = v
		msgs := e.inbox[base+lo : base+hi]
		if weigh == nil {
			mc.recvLogical += int64(len(msgs))
		} else {
			for _, msg := range msgs {
				mc.recvLogical += weigh(msg)
			}
		}
		mc.recvPhysical += int64(len(msgs))
		e.prog.Compute(ctx, v, msgs)
		mc.active++
	}
	// The other half of barrier conservation: the Compute calls consumed
	// exactly the messages the folded segments held.
	if got, want := mc.recvPhysical-before, int64(offs[len(offs)-1]-offs[0]); got != want {
		panic(fmt.Sprintf("engine: conservation violated in round %d: machine %d received %d messages, its inbox held %d",
			e.rounds+1, m, got, want))
	}
}

// deliver routes the pending envelopes into per-vertex inbox segments and
// applies the combiner's fold. Routing runs one counting sort per
// destination machine over that machine's dense local ranks; the sort
// places row contents in (source machine, emission) order whichever
// goroutine runs it, so sequential and parallel execution produce
// bit-identical inboxes.
func (e *Engine[M]) deliver() {
	e.route()
	if e.opts.Combiner != nil {
		if e.workers > 1 && len(e.inbox) >= parallelDeliverMin {
			e.runPhase(phaseCombine, len(e.machOrder))
		} else {
			for i := range e.machOrder {
				e.runTask(phaseCombine, i)
			}
		}
	}
}

// route performs the counting-sort placement of every buffered envelope
// into the inbox, leaving regionStart/moffs describing the per-vertex
// segments, and hands the rows' chunks back to the free lists. No allocation
// on the steady-state path: chunks, counts, offsets and the inbox itself are
// all persistent scratch.
func (e *Engine[M]) route() {
	k := e.k
	e.checkOwed()
	total := 0
	for d := 0; d < k; d++ {
		t := 0
		for s := 0; s < k; s++ {
			t += e.outRows[s*k+d].n
		}
		e.machLoad[d] = int64(t)
		e.regionStart[d] = int32(total)
		total += t
	}
	e.regionStart[k] = int32(total)
	if cap(e.inbox) < total {
		// A quarter of headroom: the rounds around a job's peak, and the next
		// batch's peak, exceed one another by a few percent, and an exact fit
		// would re-allocate the whole inbox for each new maximum.
		e.inbox = make([]M, total+total/4)
	}
	e.inbox = e.inbox[:total]
	e.orderByLoad()
	if e.workers > 1 && total >= parallelDeliverMin {
		e.runPhase(phaseDeliver, len(e.machOrder))
	} else {
		for i := range e.machOrder {
			e.runTask(phaseDeliver, i)
		}
	}
	for r := range e.outRows {
		e.outRows[r].release()
	}
}

// checkOwed asserts message conservation at the barrier: what each
// machine's rows hold is what the machine sent since the last barrier. Only
// an engine bug can violate this.
func (e *Engine[M]) checkOwed() {
	for m := 0; m < e.k; m++ {
		held := int64(0)
		for d := 0; d < e.k; d++ {
			held += int64(e.outRows[m*e.k+d].n)
		}
		if held != e.owed[m] {
			panic(fmt.Sprintf("engine: conservation violated entering round %d: machine %d buffered %d envelopes, sent %d",
				e.rounds+1, m, held, e.owed[m]))
		}
		e.owed[m] = 0
	}
}

// orderByLoad fills machOrder with the local machines sorted by machLoad
// descending (stable on index), the LPT heuristic: the pool starts the
// heaviest destination first so the round's critical path shrinks on
// skewed partitions. Insertion sort — k is small and the slice is nearly
// sorted between rounds — and no closures, so no allocation.
func (e *Engine[M]) orderByLoad() {
	ord := e.machOrder
	copy(ord, e.local)
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && e.machLoad[ord[j]] > e.machLoad[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
}

// deliverMachine counting-sorts every envelope addressed to machine d into
// d's inbox region: histogram over dense local ranks, prefix sum into the
// per-vertex offsets, then stable placement walking source rows in machine
// order. The count array spans only d's vertices, so it stays cache-
// resident however large the graph is.
func (e *Engine[M]) deliverMachine(d int) {
	k := e.k
	cnt := e.mcount[d]
	offs := e.moffs[d]
	for i := range cnt {
		cnt[i] = 0
	}
	for s := 0; s < k; s++ {
		e.countRow(&e.outRows[s*k+d], cnt)
	}
	offs[0] = 0
	for i := range cnt {
		offs[i+1] = offs[i] + cnt[i]
	}
	// Reuse cnt as the placement cursor; index into the region subslice so
	// the compiler checks bounds against the region, not the whole inbox.
	reg := e.inbox[e.regionStart[d]:e.regionStart[d+1]]
	cur := cnt
	copy(cur, offs[:len(cnt)])
	for s := 0; s < k; s++ {
		e.placeRow(&e.outRows[s*k+d], reg, cur)
	}
}

// countRow adds one row's envelopes to the per-rank histogram.
func (e *Engine[M]) countRow(r *outRow[M], cnt []int32) {
	rank := e.rank
	for ci := range r.chunks {
		for _, env := range r.filled(ci) {
			cnt[rank[env.dst]]++
		}
	}
}

// placeRow copies one row's payloads to their vertices' cursors.
func (e *Engine[M]) placeRow(r *outRow[M], reg []M, cur []int32) {
	rank := e.rank
	for ci := range r.chunks {
		for _, env := range r.filled(ci) {
			i := rank[env.dst]
			reg[cur[i]] = env.payload
			cur[i]++
		}
	}
}

// observeRound flushes the superstep statistics into the sim.Run. During
// silent replay (rounds <= replayTo after a recovery) the counters still
// roll — the replayed supersteps recompute them identically — but nothing
// is re-reported: the pre-crash run already priced those rounds, so the
// final accounting and report contain each superstep exactly once. Out of
// core, the round's deterministic encoded partition-file IO rides along.
func (e *Engine[M]) observeRound() {
	var rs sim.RoundStats
	if e.ooc.runner != nil {
		rs.OOCReadBytes, rs.OOCWriteBytes, rs.OOCWindowPeakBytes = e.ooc.runner.TakeRoundIO()
	}
	e.rounds++
	if e.rounds <= e.replayTo {
		e.rollCounters()
		return
	}
	if e.run != nil {
		k := e.k
		// A fresh slice every round: observers keep it (reports and
		// traces reference it after the round; see sim.RoundStats).
		per := make([]sim.MachineRound, k)
		reporter, hasState := e.prog.(vcapi.StateReporter)
		for m := 0; m < k; m++ {
			mc := &e.counters[m]
			per[m] = sim.MachineRound{
				SentLogical:    mc.sent.logical,
				SentPhysical:   mc.sent.physical,
				RecvLogical:    mc.recvLogical,
				RecvPhysical:   mc.recvPhysical,
				RemoteLogical:  mc.sent.remoteLogical,
				RemotePhysical: mc.sent.remotePhysical,
				ActiveVertices: mc.active,
			}
			if hasState {
				per[m].StateEntries = reporter.StateEntries(m)
			}
		}
		rs.PerMachine = per
		e.run.ObserveRound(rs)
	}
	e.rollCounters()
}

// rollCounters zeroes the per-round counters, first crediting what each
// machine sent to the envelopes its rows owe the next barrier (see
// checkOwed).
func (e *Engine[M]) rollCounters() {
	for m := range e.counters {
		e.owed[m] += e.counters[m].sent.physical + e.counters[m].sent.fanout
		e.counters[m] = machineCounters{}
	}
}
