// Package vcapi defines the vertex-centric programming contract shared by
// every executor in this repository: the synchronous BSP engine
// (internal/engine, the Pregel/Giraph/Pregel+/GraphD family), the
// GAS-style executors (internal/gas, the GraphLab family, including the
// asynchronous engine) and the workers of the real RPC cluster
// (internal/rpcrt). A vertex program written once against these
// interfaces runs unchanged on any executor, which is exactly how the
// paper ports its benchmark tasks across the seven systems (§3). A fan-out
// of one payload to many vertices is one Context.SendAll call, which every
// executor makes exactly Send in a loop: same order, counters and bytes.
package vcapi

import (
	"vcmt/internal/graph"
	"vcmt/internal/randx"
)

// Context is the vertex program's handle to the running executor.
type Context[M any] interface {
	// Graph returns the graph under computation.
	Graph() *graph.Graph
	// Machine returns the index of the machine executing the current call.
	Machine() int
	// Vertex returns the vertex whose Compute call is running (undefined
	// during Seed).
	Vertex() graph.VertexID
	// Round returns the 1-based superstep number (for asynchronous
	// executors, the accounting epoch).
	Round() int
	// OwnedVertices lists the vertices owned by the executing machine.
	OwnedVertices() []graph.VertexID
	// RNG returns the executing machine's deterministic random stream.
	RNG() *randx.RNG
	// Send transmits a point-to-point message to dst (the Pregel-based
	// implementation family of §3).
	Send(dst graph.VertexID, m M)
	// SendAll sends m to every vertex of dsts, in order: exactly Send(u, m)
	// for each u, with the same emission order, counters and bytes, in one
	// call per fan-out. It does not retain dsts.
	SendAll(dsts []graph.VertexID, m M)
	// Broadcast delivers m to every neighbor of src (the broadcast
	// interface of the mirror-mechanism-based family of §3).
	Broadcast(src graph.VertexID, m M)
}

// MachineSeed derives a machine's RNG stream from an executor's run seed.
// Every executor seeds Context.RNG with it, so a program draws the same
// numbers on the same machine whichever executor hosts it.
func MachineSeed(seed uint64, machine int) uint64 {
	return seed ^ uint64(machine+1)*0x9e3779b97f4a7c15
}

// Program is a vertex-centric program.
type Program[M any] interface {
	// Seed runs once per machine as the first superstep and sends the
	// initial messages.
	Seed(ctx Context[M])
	// Compute runs for a vertex with pending messages. msgs aliases
	// executor-internal storage and is only valid during the call.
	Compute(ctx Context[M], v graph.VertexID, msgs []M)
}

// StateReporter is an optional Program extension: executors poll it after
// each superstep/epoch for the live task-state entries per machine, which
// the cost model charges against memory.
type StateReporter interface {
	StateEntries(machine int) int64
}

// WeightFunc reports the logical multiplicity of a message (e.g. the
// number of walks a counted BPPR message carries). nil means 1.
type WeightFunc[M any] func(M) int64

// StateSnapshotter is an optional Program extension required for
// checkpointing: AppendState serializes all program-owned mutable state at
// a superstep barrier and LoadState restores it, such that a restored
// program replays subsequent supersteps identically. Encodings must be
// deterministic (iterate in any order fixed by the run, never a map's) so
// checkpoint bytes are reproducible. AppendState appends to buf, leaving its
// bytes as they are, and returns the extended slice; neither method keeps
// its argument, which the executor reuses for the next snapshot.
type StateSnapshotter interface {
	AppendState(buf []byte) ([]byte, error)
	LoadState(data []byte) error
}

// DeltaSnapshotter is an optional StateSnapshotter extension: AppendDelta
// appends what changed since the last of the four calls, each of which
// starts the next delta afresh, and LoadDelta applies such an image on top
// of the state the last load restored (undefined after a failed one).
type DeltaSnapshotter interface {
	StateSnapshotter
	AppendDelta(buf []byte) ([]byte, error)
	LoadDelta(data []byte) error
}
