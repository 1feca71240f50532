package engine

import (
	"fmt"
	"slices"

	"vcmt/internal/graph"
	"vcmt/internal/ooc"
)

// Codec serializes message payloads for partition files and checkpoints
// (Options.Codec). Encode appends the payload to buf and returns the
// extended slice; Decode parses one payload from data and returns the
// payload and the number of bytes consumed.
type Codec[M any] interface {
	Encode(buf []byte, m M) []byte
	Decode(data []byte) (M, int)
}

// OOCOptions selects the out-of-core execution backend: instead of buffering
// outboxes and inboxes in memory, every emitted message is encoded and
// routed into a per-destination-partition append file, and each superstep
// streams one partition at a time — its inbox, then its edge file, decoding
// the adjacency of only the vertices the inbox names — through a bounded
// memory window (the GraphD/PartitionedVC model; see internal/ooc).
//
// The backend preserves the engine's determinism contract bit-for-bit: it
// forces one worker, executes vertices in the exact machine-major order of
// the sequential engine, and the per-partition counting sort over
// append-ordered inbox files reproduces the in-memory delivery layout, so
// results, RNG streams, counters and reports are identical to an in-memory
// run. Only the ooc_* IO counters differ. The options are the runner's own:
// the partition-file directory, the memory budget the window peak is
// reported against, the partition count and the measured-IO sink, whose
// wall-clock numbers never enter deterministic reports.
type OOCOptions = ooc.Config

// oocState is the out-of-core backend: the runner of the current run, and
// inbox and encode scratch that live as long as the engine (decoded
// messages land in e.inbox, sorted with e.mcount and e.moffs).
type oocState[M any] struct {
	runner *ooc.PartitionedRunner
	view   *graph.Graph // current partition's edge window, nil outside compute
	enc    []byte       // encode scratch for Route
	ib     ooc.Inbox
	first  []int // machine m's vertices start at order[first[m]]
}

// curGraph returns the graph visible to vertex programs: the full in-memory
// graph, or the current partition's streamed edge window in ooc mode.
func (e *Engine[M]) curGraph() *graph.Graph {
	if e.ooc.view != nil {
		return e.ooc.view
	}
	return e.g
}

// routeOOC is the out-of-core send: the payload is encoded and appended to
// its destination partition's file. Appends preserve emission order, so the
// merged inbox reproduces the in-memory layout.
func (e *Engine[M]) routeOOC(dst graph.VertexID, m M) {
	st := &e.ooc
	st.enc = e.opts.Codec.Encode(st.enc[:0], m)
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
	if e.opts.Codec == nil {
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
	e.ooc.first = e.ooc.first[:0]
	for m := range e.vertsByMachine {
		e.ooc.first = append(e.ooc.first, len(order))
		order = append(order, e.vertsByMachine[m]...)
	}
	runner, err := ooc.NewRunner(e.g, order, *oo)
	if err != nil {
		return fmt.Errorf("engine: ooc: %w", err)
	}
	e.ooc.runner = runner
	e.oocPartitions = runner.Partitions()
	return nil
}

// closeOOC releases the partition files when a run ends.
func (e *Engine[M]) closeOOC() {
	if e.ooc.runner != nil {
		e.ooc.runner.Close()
		e.ooc.runner = nil
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

// ranks returns machine d's ranks lo..hi-1 inside partition p, a contiguous
// run of the machine-major order and so of each machine's ranks.
func (e *Engine[M]) ranks(d int32, p int) (lo, hi int) {
	start, end := e.ooc.runner.Span(p)
	first, n := e.ooc.first[d], len(e.vertsByMachine[d])
	return min(max(start-first, 0), n), min(max(end-first, 0), n)
}

// computePartition streams partition p through the memory window: read the
// inbox, load the edge window of the vertices it names (only they compute),
// and counting-sort the inbox into the in-memory delivery layout (e.inbox
// regions per machine, stable, so each vertex's segment is in global
// emission order), then fold and compute exactly as in memory, touching
// only p's ranks of each machine.
func (e *Engine[M]) computePartition(p int) error {
	st := &e.ooc
	r := st.runner
	if err := r.ReadInbox(p, &st.ib); err != nil {
		return fmt.Errorf("engine: ooc inbox %d: %w", p, err)
	}
	win, _, err := r.Window(p, st.ib.Dsts)
	if err != nil {
		return fmt.Errorf("engine: ooc window %d: %w", p, err)
	}
	st.view = win
	defer func() { st.view = nil }()

	for _, d := range e.local {
		lo, hi := e.ranks(d, p)
		clear(e.mcount[d][lo:hi])
	}
	for _, v := range st.ib.Dsts { // ReadInbox checked every v is in p
		e.mcount[e.owners[v]][e.rank[v]]++
	}
	total := int32(0)
	for _, d := range e.local {
		lo, hi := e.ranks(d, p)
		cnt, offs := e.mcount[d], e.moffs[d]
		e.regionStart[d] = total
		offs[lo] = 0
		for i := lo; i < hi; i++ {
			offs[i+1] = offs[i] + cnt[i]
		}
		copy(cnt[lo:hi], offs[lo:hi]) // cnt becomes the placement cursor
		total += offs[hi]
	}
	e.regionStart[e.k] = total
	e.inbox = slices.Grow(e.inbox[:0], int(total))[:total]
	codec := e.opts.Codec
	for i, v := range st.ib.Dsts {
		payload := st.ib.Payload(i)
		m, used := codec.Decode(payload)
		if used != len(payload) {
			return fmt.Errorf("engine: ooc codec decoded %d of %d bytes", used, len(payload))
		}
		d, li := e.owners[v], e.rank[v]
		e.inbox[e.regionStart[d]+e.mcount[d][li]] = m
		e.mcount[d][li]++
	}
	for _, d := range e.local {
		lo, hi := e.ranks(d, p)
		if e.opts.Combiner != nil {
			e.combineMachine(int(d), lo, hi)
		}
		e.computeMachine(int(d), lo, hi)
	}
	return nil
}
