package engine

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"vcmt/internal/graph"
	"vcmt/internal/vcapi"
)

// spreadMsg is this file's own message type, so no other test's engines
// share its recycler.
type spreadMsg struct{ Hop int32 }

// spreadProg sends every vertex's message to all its neighbors for hops
// rounds, allocating nothing itself.
type spreadProg struct{ hops int32 }

func (p spreadProg) Seed(ctx vcapi.Context[spreadMsg]) {
	for _, v := range ctx.OwnedVertices() {
		ctx.SendAll(ctx.Graph().Neighbors(v), spreadMsg{1})
	}
}

func (p spreadProg) Compute(ctx vcapi.Context[spreadMsg], v graph.VertexID, msgs []spreadMsg) {
	if msgs[0].Hop < p.hops {
		ctx.SendAll(ctx.Graph().Neighbors(v), spreadMsg{msgs[0].Hop + 1})
	}
}

// TestReleasedBuffersServeNextJob: with the GC off, a job of the message
// type run after a released one allocates no outbox chunk and no inbox; a
// GC frees what was released, so the recycler then hands nothing out.
func TestReleasedBuffersServeNextJob(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	part := graph.HashPartition(600, 4)
	big := New(graph.GenerateChungLu(600, 4800, 2.5, 3), part, spreadProg{3}, nil, Options[spreadMsg]{Workers: 1})
	if err := big.Run(); err != nil {
		t.Fatal(err)
	}
	big.Release()

	// A smaller graph on the same machines: its peak fits what big held.
	e := New(graph.GenerateChungLu(400, 2400, 2.5, 5), graph.HashPartition(400, 4), spreadProg{3}, nil, Options[spreadMsg]{Workers: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// One chunk or the smallest inbox of a flood round would exceed it.
	bound := uint64(unsafe.Sizeof(chunk[spreadMsg]{})) / 4
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("a run after a released one allocated %d bytes, want < %d (no chunk, no inbox)", got, bound)
	}
	if cap(e.inbox) == 0 || len(e.free[0]) == 0 {
		t.Fatal("the run drew no inbox or no chunks")
	}

	e.Release()
	runtime.GC()
	if r := recycler[spreadMsg]().Get(); r.free != nil || r.inbox != nil {
		t.Fatalf("after a GC the recycler still hands out %d free lists and an inbox of %d", len(r.free), cap(r.inbox))
	}
}
