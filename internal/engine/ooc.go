package engine

import (
	"fmt"

	"vcmt/internal/graph"
	"vcmt/internal/ooc"
)

// Codec serializes message payloads for partition files and checkpoints.
// Encode appends the payload to buf and returns the extended slice; Decode
// parses one payload from data and returns the payload and the number of
// bytes consumed.
type Codec[M any] interface {
	Encode(buf []byte, m M) []byte
	Decode(data []byte) (M, int)
}

// OOCOptions selects the out-of-core execution backend: instead of buffering
// outboxes and inboxes in memory, every emitted message is encoded and
// routed into a per-destination-partition append file, and each superstep
// streams one partition at a time — its edge file and its inbox — through a
// bounded memory window (the GraphD/PartitionedVC model; see internal/ooc).
//
// The backend preserves the engine's determinism contract bit-for-bit: it
// forces one worker, executes vertices in the exact machine-major order of
// the sequential engine, and the per-partition counting sort over
// append-ordered inbox files reproduces the in-memory delivery layout, so
// results, RNG streams, counters and reports are identical to an in-memory
// run. Only the ooc_* IO counters differ.
type OOCOptions[M any] struct {
	// Codec serializes message payloads into partition files (the same
	// contract as checkpoint codecs).
	Codec Codec[M]
	// Dir is the partition-file directory; empty means a private temporary
	// directory removed when the run finishes.
	Dir string
	// MemoryBudgetBytes bounds the resident window (one partition's edges
	// plus its inbox). Used to derive the partition count when Partitions
	// is 0, and reported against the observed window peak.
	MemoryBudgetBytes int64
	// Partitions fixes the partition count; 0 derives it from the budget.
	Partitions int
	// Stats, when non-nil, accumulates measured wall-clock IO for disk-
	// bandwidth calibration (see core.DiskTuneCalibrated). Wall-clock
	// numbers never enter deterministic reports.
	Stats *ooc.IOStats
}

// oocState is the live out-of-core backend of one run.
type oocState[M any] struct {
	runner *ooc.PartitionedRunner
	codec  Codec[M]
	view   *graph.Graph // current partition's edge window, nil outside compute
	enc    []byte       // encode scratch for Route
	ib     ooc.Inbox
	// Per-partition counting-sort scratch (local vertex index space).
	cnt  []int32
	offs []int32
	msgs []M
}

// curGraph returns the graph visible to vertex programs: the full in-memory
// graph, or the current partition's streamed edge window in ooc mode.
func (e *Engine[M]) curGraph() *graph.Graph {
	if e.ooc != nil && e.ooc.view != nil {
		return e.ooc.view
	}
	return e.g
}

// routeOOC is the out-of-core send: the payload is encoded and appended to
// its destination partition's file. Appends preserve emission order, so the
// merged inbox reproduces the in-memory layout.
func (e *Engine[M]) routeOOC(dst graph.VertexID, m M) {
	st := e.ooc
	st.enc = st.codec.Encode(st.enc[:0], m)
	if err := st.runner.Route(dst, st.enc); err != nil {
		panic(fmt.Sprintf("engine: ooc route: %v", err))
	}
}

// initOOC validates the out-of-core configuration and opens the partitioned
// runner over the engine's machine-major vertex order (a no-op in memory).
func (e *Engine[M]) initOOC() error {
	oo := e.opts.OOC
	if oo == nil {
		return nil
	}
	if oo.Codec == nil {
		return fmt.Errorf("engine: out-of-core execution requires a Codec")
	}
	if e.opts.Checkpoint != nil {
		return fmt.Errorf("engine: OOC is incompatible with Checkpoint (partition files are not snapshot sections yet)")
	}
	if e.opts.Fault != nil {
		return fmt.Errorf("engine: OOC is incompatible with fault injection (no checkpoint to recover from)")
	}
	if e.mirrored() {
		return fmt.Errorf("engine: OOC is incompatible with mirroring (mirror spans assume a resident graph)")
	}
	order := make([]graph.VertexID, 0, e.g.NumVertices())
	for m := range e.vertsByMachine {
		order = append(order, e.vertsByMachine[m]...)
	}
	runner, err := ooc.NewRunner(e.g, order, ooc.Config{
		Dir:               oo.Dir,
		MemoryBudgetBytes: oo.MemoryBudgetBytes,
		Partitions:        oo.Partitions,
		Stats:             oo.Stats,
	})
	if err != nil {
		return fmt.Errorf("engine: ooc: %w", err)
	}
	e.ooc = &oocState[M]{runner: runner, codec: oo.Codec}
	e.oocPartitions = runner.Partitions()
	return nil
}

// closeOOC releases the partition files when a run ends.
func (e *Engine[M]) closeOOC() {
	if e.ooc != nil {
		e.ooc.runner.Close()
		e.ooc = nil
	}
}

// OOCPartitions returns the partition count the run used (0 in-memory).
// The run's partition-file IO is on its sim.Run, summed from the rounds.
func (e *Engine[M]) OOCPartitions() int { return e.oocPartitions }

// stepOOC is the out-of-core superstep: the barrier seals the routed append
// files into readable inboxes, then every partition streams through the
// window in execution order.
func (e *Engine[M]) stepOOC() error {
	r := e.ooc.runner
	if err := r.Barrier(); err != nil {
		return fmt.Errorf("engine: ooc barrier: %w", err)
	}
	for p := 0; p < r.Partitions(); p++ {
		if err := e.computePartition(p); err != nil {
			return err
		}
	}
	return nil
}

// computePartition streams partition p through the memory window: load the
// edge window, read the inbox, counting-sort it into per-vertex segments in
// local index space (stable, so each vertex's segment is in global emission
// order — the in-memory delivery layout), combine, then run Compute over the
// partition's vertices in execution order with each context bound to the
// vertex's owner machine.
func (e *Engine[M]) computePartition(p int) error {
	st := e.ooc
	r := st.runner
	win, _, err := r.Window(p)
	if err != nil {
		return fmt.Errorf("engine: ooc window %d: %w", p, err)
	}
	st.view = win
	defer func() { st.view = nil }()
	if err := r.ReadInbox(p, &st.ib); err != nil {
		return fmt.Errorf("engine: ooc inbox %d: %w", p, err)
	}

	start, end := r.Start(p), r.End(p)
	span := end - start
	if cap(st.cnt) < span {
		st.cnt = make([]int32, span)
		st.offs = make([]int32, span+1)
	}
	st.cnt = st.cnt[:span]
	st.offs = st.offs[:span+1]
	for i := range st.cnt {
		st.cnt[i] = 0
	}
	total := st.ib.Len()
	for i := 0; i < total; i++ {
		st.cnt[r.Pos(st.ib.Dsts[i])-start]++
	}
	st.offs[0] = 0
	for i := 0; i < span; i++ {
		st.offs[i+1] = st.offs[i] + st.cnt[i]
	}
	if cap(st.msgs) < total {
		st.msgs = make([]M, total)
	}
	st.msgs = st.msgs[:total]
	// Reuse cnt as the placement cursor.
	copy(st.cnt, st.offs[:span])
	for i := 0; i < total; i++ {
		payload := st.ib.Payload(i)
		m, used := st.codec.Decode(payload)
		if used != len(payload) {
			return fmt.Errorf("engine: ooc codec decoded %d of %d bytes", used, len(payload))
		}
		li := r.Pos(st.ib.Dsts[i]) - start
		st.msgs[st.cnt[li]] = m
		st.cnt[li]++
	}

	order := r.Order()
	for i := start; i < end; i++ {
		v := order[i]
		li := i - start
		lo, hi := st.offs[li], st.offs[li+1]
		if lo == hi {
			continue
		}
		seg := st.msgs[lo:hi]
		if e.opts.Combiner != nil && len(seg) > 1 {
			// OOC runs sequentially, so machine 0's fold table serves
			// every segment.
			seg = seg[:e.foldSegment(&e.foldTabs[0], seg)]
		}
		m := e.part.Owner(v)
		ctx := e.ctxs[m]
		ctx.vertex = v
		rc := &e.recv[m]
		for _, msg := range seg {
			rc.logical += e.weight(msg)
		}
		rc.physical += int64(len(seg))
		e.prog.Compute(ctx, v, seg)
		e.active[m]++
	}
	return nil
}
