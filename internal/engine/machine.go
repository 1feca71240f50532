package engine

import "vcmt/internal/graph"

// A machine engine executes one machine of its partition — GraphD's worker,
// whose local message engine is the single-machine engine with a network
// underneath. Step seeds, delivers, folds and computes that machine alone,
// while Send still routes by the whole partition's tables: a message for
// another machine's vertex waits on row (id → d) until the driver Drains it
// across the network, where d's engine Lands it on row (id → d) in the same
// order. Delivery then walks source rows in machine order as always, so k
// machine engines wired this way compute exactly what one k-machine engine
// computes: inbox order, RNG streams, rounds and checkpoints included.
// The driver owns the halting rule (no machine buffered or landed anything)
// and the barrier: Land must not run concurrently with Step.

// NewMachine constructs an engine that executes machine id of part alone,
// driven by Step, Drain and Land rather than Run. It prices nothing (the
// runtime that drives it measures wall-clock instead) and supports neither
// out-of-core execution nor Run's checkpoint cadence: Snapshot and Restore
// are the driver's to call at its barriers, with Options.Codec encoding
// the payloads.
func NewMachine[M any](g *graph.Graph, part *graph.Partition, id int, prog Program[M], opts Options[M]) *Engine[M] {
	return newEngine(g, part, []int32{int32(id)}, prog, nil, opts)
}

// Buffered returns how many messages row (s → d) holds: after a Step, what
// machine s sent machine d during it, until Drain(d) takes them or the next
// Step delivers them.
func (e *Engine[M]) Buffered(s, d int) int { return e.outRows[s*e.k+d].n }

// Drain calls fn, in emission order, for every message the machine engine's
// machine wrote for machine d during the last Step, and empties the row:
// they leave the barrier conservation check with it. d must be remote.
func (e *Engine[M]) Drain(d int, fn func(dst graph.VertexID, m M)) {
	id := int(e.local[0])
	r := &e.outRows[id*e.k+d]
	for ci := range r.chunks {
		for _, env := range r.filled(ci) {
			fn(env.dst, env.payload)
		}
	}
	e.owed[id] -= int64(r.n)
	r.release()
}

// Land buffers m, which machine s sent to vertex dst of this machine engine,
// on row (s → machine of dst) after whatever s sent before it, and credits
// it to s in the barrier conservation check, so the next Step delivers it in
// the engine's (source machine, emission) order. The caller guarantees that
// dst is local.
func (e *Engine[M]) Land(s int, dst graph.VertexID, m M) {
	e.outRows[s*e.k+int(e.owners[dst])].push(envelope[M]{dst: dst, payload: m})
	e.owed[s]++
}

// Owned returns the vertices machine m owns, ascending. The slice aliases
// engine storage and must not be modified.
func (e *Engine[M]) Owned(m int) []graph.VertexID { return e.vertsByMachine[m] }
