package engine

import (
	"vcmt/internal/graph"
	"vcmt/internal/randx"
	"vcmt/internal/vcapi"
)

// Context implements vcapi.Context for the BSP engine.
var _ vcapi.Context[int] = (*Context[int])(nil)

// Context is the vertex program's handle to the engine during Seed and
// Compute calls. The engine creates one Context per logical machine so
// machines can execute concurrently; during Compute it is additionally
// bound to the vertex currently executing.
type Context[M any] struct {
	e       *Engine[M]
	machine int
	vertex  graph.VertexID
	// Hot-path caches: this machine's send counters and its k outbox rows —
	// a subslice of Engine.outRows, so pushes through either view update
	// the same rows.
	sc   *machineCounters
	rows []outRow[M]
}

// Graph returns the graph under computation. In out-of-core mode this is
// the current partition's streamed edge window — full vertex count, with
// adjacency resident only for the partition being executed, which always
// includes the vertex whose Compute call is running.
func (c *Context[M]) Graph() *graph.Graph { return c.e.curGraph() }

// Machine returns the executing machine's index.
func (c *Context[M]) Machine() int { return c.machine }

// Vertex returns the vertex whose Compute call is running; it is undefined
// during Seed.
func (c *Context[M]) Vertex() graph.VertexID { return c.vertex }

// Round returns the 1-based current superstep number.
func (c *Context[M]) Round() int { return c.e.rounds + 1 }

// OwnedVertices returns the vertices owned by the executing machine. The
// slice aliases engine storage and must not be modified.
func (c *Context[M]) OwnedVertices() []graph.VertexID {
	return c.e.vertsByMachine[c.machine]
}

// RNG returns the executing machine's deterministic random stream.
func (c *Context[M]) RNG() *randx.RNG { return c.e.rngs[c.machine] }

// Send transmits a point-to-point message from the executing machine to
// vertex dst, to be delivered in the next superstep (the Pregel-based
// implementation family of §3). Ownership comes from the precomputed
// owners table — no partition closure call on the hot path.
func (c *Context[M]) Send(dst graph.VertexID, m M) {
	e := c.e
	sc := c.sc
	w := c.weight(m)
	sc.logical += w
	sc.physical++
	d := int(e.owners[dst])
	if d != c.machine {
		sc.remoteLogical += w
		sc.remotePhysical++
	}
	if e.opts.OOC != nil {
		e.routeOOC(dst, m)
		return
	}
	// outRow.push, written out: with its grow call it is past the
	// compiler's inlining budget, and a call per message shows.
	r := &c.rows[d]
	off := r.n & chunkMask
	if off == 0 {
		r.grow()
	}
	r.tail[off] = envelope[M]{dst: dst, payload: m}
	r.n++
}

// SendAll is Send(u, m) for each u of dsts, in order, to the counter and
// the byte, with one Weight call and one pass. It does not retain dsts.
func (c *Context[M]) SendAll(dsts []graph.VertexID, m M) {
	w, n, sc := c.weight(m), int64(len(dsts)), c.sc
	sc.logical += w * n
	sc.physical += n
	remote := c.fanOut(dsts, m)
	sc.remoteLogical += w * remote
	sc.remotePhysical += remote
}

// Broadcast delivers m to every neighbor of src: the broadcast interface of
// the mirror-mechanism-based implementation family (§3). On a mirroring
// system a high-degree src transmits one wire message per mirror machine
// and the mirrors fan out locally; otherwise the broadcast is SendAll to
// the neighbors.
func (c *Context[M]) Broadcast(src graph.VertexID, m M) {
	e := c.e
	ns := e.curGraph().Neighbors(src)
	if !e.mirrored() || len(ns) < e.run.Config().System.MirrorDegreeThreshold || len(ns) == 0 {
		c.SendAll(ns, m)
		return
	}
	// One wire message per mirror machine; local fan-out is free.
	w := c.weight(m)
	e.ensureMirrorSpan()
	span := int64(e.mirrorSpan[src])
	sc := c.sc
	sc.logical += w * int64(len(ns))
	sc.physical += span + 1 // the local copy plus one per mirror
	sc.fanout += int64(len(ns)) - (span + 1)
	sc.remoteLogical += w * span
	sc.remotePhysical += span
	c.fanOut(ns, m)
}

// weight is m's logical multiplicity (Options.Weight, 1 when nil).
func (c *Context[M]) weight(m M) int64 {
	if c.e.opts.Weight == nil {
		return 1
	}
	return c.e.opts.Weight(m)
}

// fanOut pushes m to every vertex of dsts, in order (out of core through
// routeOOC), and returns how many of them another machine owns: the
// engine's one fan-out loop, under SendAll and both arms of Broadcast.
func (c *Context[M]) fanOut(dsts []graph.VertexID, m M) int64 {
	e := c.e
	owners, rows, ooc := e.owners, c.rows, e.opts.OOC != nil
	var remote int64
	for _, u := range dsts {
		d := int(owners[u])
		if d != c.machine {
			remote++
		}
		if ooc {
			e.routeOOC(u, m)
			continue
		}
		r := &rows[d] // outRow.push, written out as in Send
		off := r.n & chunkMask
		if off == 0 {
			r.grow()
		}
		r.tail[off] = envelope[M]{dst: u, payload: m}
		r.n++
	}
	return remote
}
