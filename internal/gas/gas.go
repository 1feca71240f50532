// Package gas implements the GraphLab execution family (§2.2, §4.8).
//
// GraphLab's synchronous engine is behaviourally a BSP engine with
// message combining, so GraphLab(sync) runs on internal/engine with the
// sim.GraphLab profile (whose Combines flag prices combined message
// counts). This package adds what BSP cannot express: the asynchronous
// engine, where a vertex executes as soon as its input resources are
// ready, with no synchronization barrier. Vertices are activated from a
// work queue; machine-local messages become visible immediately, while
// remote messages are delivered at epoch boundaries (modelling network
// latency). Per-epoch statistics feed the same sim.Run cost model, which
// charges GraphLab(async)'s distributed-locking overhead per activation
// and prices uncombined (logical) message counts — the two effects the
// paper identifies behind async's losses on heavy multi-processing
// workloads (§4.8).
//
// Any vcapi.Program runs unchanged on this executor, provided its
// semantics tolerate asynchronous delivery (message-monotone computations
// such as random walks, shortest-path relaxation, k-hop search and
// delta-PageRank all do).
package gas

import (
	"errors"
	"fmt"

	"vcmt/internal/graph"
	"vcmt/internal/randx"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// Options tunes an asynchronous run. Like engine.Options it has no
// overload switch: batch.Run applies the 6000 s cutoff between batches.
type Options[M any] struct {
	// Weight reports logical message multiplicity; nil means 1.
	Weight vcapi.WeightFunc[M]
	// Seed drives the per-machine deterministic RNG streams.
	Seed uint64
}

// MaxEpochs bounds a run's accounting epochs. An epoch is as many vertex
// activations as the graph has vertices: the async analogue of a
// superstep for statistics purposes.
const MaxEpochs = 100000

// ErrMaxEpochs is returned when the epoch bound is hit before the
// computation drains.
var ErrMaxEpochs = errors.New("gas: maximum epoch count reached")

// Async is the asynchronous executor.
type Async[M any] struct {
	g    *graph.Graph
	part *graph.Partition
	prog vcapi.Program[M]
	run  *sim.Run
	opts Options[M]

	vertsByMachine [][]graph.VertexID
	rngs           []*randx.RNG

	inbox    [][]M
	queued   []bool
	queue    []graph.VertexID
	head     int
	deferred []deferredMsg[M]

	sent        []counters
	recv        []counters
	activations []int64
	epochActs   int
	epochLen    int // activations per epoch
	epochs      int
}

type deferredMsg[M any] struct {
	dst     graph.VertexID
	payload M
}

type counters struct {
	logical, physical, remoteLogical, remotePhysical int64
}

// NewAsync constructs an asynchronous executor. run may be nil in tests.
func NewAsync[M any](g *graph.Graph, part *graph.Partition, prog vcapi.Program[M], run *sim.Run, opts Options[M]) *Async[M] {
	k := part.NumMachines()
	a := &Async[M]{
		g: g, part: part, prog: prog, run: run, opts: opts,
		epochLen:       max(g.NumVertices(), 1),
		vertsByMachine: make([][]graph.VertexID, k),
		rngs:           make([]*randx.RNG, k),
		inbox:          make([][]M, g.NumVertices()),
		queued:         make([]bool, g.NumVertices()),
		sent:           make([]counters, k),
		recv:           make([]counters, k),
		activations:    make([]int64, k),
	}
	for v := 0; v < g.NumVertices(); v++ {
		m := part.Owner(graph.VertexID(v))
		a.vertsByMachine[m] = append(a.vertsByMachine[m], graph.VertexID(v))
	}
	for m := 0; m < k; m++ {
		a.rngs[m] = randx.New(vcapi.MachineSeed(opts.Seed, m))
	}
	return a
}

// Epochs returns the accounting epochs elapsed.
func (a *Async[M]) Epochs() int { return a.epochs }

func (a *Async[M]) weight(m M) int64 {
	if a.opts.Weight == nil {
		return 1
	}
	return a.opts.Weight(m)
}

func (a *Async[M]) enqueue(v graph.VertexID) {
	if !a.queued[v] {
		a.queued[v] = true
		a.queue = append(a.queue, v)
	}
}

// flushDeferred delivers all pending remote messages, activating their
// destinations.
func (a *Async[M]) flushDeferred() {
	for _, d := range a.deferred {
		a.inbox[d.dst] = append(a.inbox[d.dst], d.payload)
		a.enqueue(d.dst)
	}
	a.deferred = a.deferred[:0]
}

// observeEpoch flushes the epoch statistics into the sim.Run.
func (a *Async[M]) observeEpoch() {
	a.epochs++
	a.epochActs = 0
	if a.run != nil {
		k := a.part.NumMachines()
		per := make([]sim.MachineRound, k)
		reporter, hasState := a.prog.(vcapi.StateReporter)
		for m := 0; m < k; m++ {
			per[m] = sim.MachineRound{
				SentLogical:    a.sent[m].logical,
				SentPhysical:   a.sent[m].physical,
				RecvLogical:    a.recv[m].logical,
				RecvPhysical:   a.recv[m].physical,
				RemoteLogical:  a.sent[m].remoteLogical,
				RemotePhysical: a.sent[m].remotePhysical,
				ActiveVertices: a.activations[m],
				Activations:    a.activations[m],
			}
			if hasState {
				per[m].StateEntries = reporter.StateEntries(m)
			}
		}
		a.run.ObserveRound(sim.RoundStats{PerMachine: per})
	}
	for m := range a.sent {
		a.sent[m] = counters{}
		a.recv[m] = counters{}
		a.activations[m] = 0
	}
}

// Run executes until no work remains, returning ErrMaxEpochs if the epoch
// bound is hit first. A run past the cost model's cutoff runs on, with the
// overload visible on the sim.Run.
func (a *Async[M]) Run() error {
	k := a.part.NumMachines()
	ctx := &asyncCtx[M]{a: a}
	for m := 0; m < k; m++ {
		ctx.machine = m
		a.prog.Seed(ctx)
		a.activations[m] += int64(len(a.vertsByMachine[m]))
		a.epochActs += len(a.vertsByMachine[m])
	}
	a.flushDeferred()
	for a.head < len(a.queue) {
		if a.epochs >= MaxEpochs {
			return fmt.Errorf("%w (%d)", ErrMaxEpochs, MaxEpochs)
		}
		v := a.queue[a.head]
		a.head++
		a.queued[v] = false
		msgs := a.inbox[v]
		a.inbox[v] = nil
		if len(msgs) == 0 {
			continue
		}
		m := a.part.Owner(v)
		rc := &a.recv[m]
		for _, msg := range msgs {
			rc.logical += a.weight(msg)
			rc.physical++
		}
		ctx.machine = m
		ctx.vertex = v
		a.prog.Compute(ctx, v, msgs)
		a.activations[m]++
		a.epochActs++
		if a.epochActs >= a.epochLen {
			a.observeEpoch()
		}
		if a.head == len(a.queue) {
			// Queue drained: compact and deliver pending remote traffic.
			a.queue = a.queue[:0]
			a.head = 0
			a.flushDeferred()
		}
	}
	a.observeEpoch()
	return nil
}

// asyncCtx implements vcapi.Context for the asynchronous executor.
type asyncCtx[M any] struct {
	a       *Async[M]
	machine int
	vertex  graph.VertexID
}

func (c *asyncCtx[M]) Graph() *graph.Graph    { return c.a.g }
func (c *asyncCtx[M]) Machine() int           { return c.machine }
func (c *asyncCtx[M]) Vertex() graph.VertexID { return c.vertex }
func (c *asyncCtx[M]) Round() int             { return c.a.epochs + 1 }
func (c *asyncCtx[M]) OwnedVertices() []graph.VertexID {
	return c.a.vertsByMachine[c.machine]
}
func (c *asyncCtx[M]) RNG() *randx.RNG { return c.a.rngs[c.machine] }

// Send delivers machine-local messages immediately (the receiving vertex
// can execute "whenever its input resources are ready", §2.2) and defers
// remote messages to the next epoch boundary.
func (c *asyncCtx[M]) Send(dst graph.VertexID, m M) {
	a := c.a
	w := a.weight(m)
	sc := &a.sent[c.machine]
	sc.logical += w
	sc.physical++
	if a.part.Owner(dst) != c.machine {
		sc.remoteLogical += w
		sc.remotePhysical++
		a.deferred = append(a.deferred, deferredMsg[M]{dst: dst, payload: m})
		return
	}
	a.inbox[dst] = append(a.inbox[dst], m)
	a.enqueue(dst)
}

func (c *asyncCtx[M]) SendAll(dsts []graph.VertexID, m M) {
	for _, u := range dsts {
		c.Send(u, m)
	}
}

// Broadcast fans out to every neighbor; the GraphLab family has no
// mirroring, so this is a plain per-neighbor send.
func (c *asyncCtx[M]) Broadcast(src graph.VertexID, m M) {
	c.SendAll(c.a.g.Neighbors(src), m)
}
