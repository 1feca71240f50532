package engine

import (
	"testing"
	"unsafe"

	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// The host running the tests may have a single CPU (GOMAXPROCS=1), in
// which case the default worker count resolves to sequential execution.
// The tests here pin explicit Workers values so the pool, the parallel
// delivery sort and the per-machine structures are exercised regardless.

// runBFSWorkers runs BFS with an explicit worker-pool size and returns the
// program plus the priced run result.
func runBFSWorkers(t *testing.T, g *graph.Graph, k, workers int) (*bfsProg, sim.JobResult) {
	t.Helper()
	part := graph.HashPartition(g.NumVertices(), k)
	run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(k), System: sim.PregelPlus})
	prog := newBFS(g.NumVertices(), 0)
	e := New[hopMsg](g, part, prog, run, Options[hopMsg]{Seed: 1, Workers: workers})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return prog, run.Result()
}

func TestWorkerCountsProduceIdenticalRuns(t *testing.T) {
	g := graph.GenerateChungLu(600, 2400, 2.5, 21)
	base, baseRes := runBFSWorkers(t, g, 8, 1)
	for _, w := range []int{2, 4, 8} {
		got, res := runBFSWorkers(t, g, 8, w)
		for v := range base.dist {
			if got.dist[v] != base.dist[v] {
				t.Fatalf("workers=%d: dist[%d]=%d want %d", w, v, got.dist[v], base.dist[v])
			}
		}
		// The whole priced observation stream must match, not just the
		// final answer: rounds, logical message volume and simulated time
		// are all functions of the observed per-round statistics.
		if res.Rounds != baseRes.Rounds {
			t.Fatalf("workers=%d: rounds %d want %d", w, res.Rounds, baseRes.Rounds)
		}
		if res.TotalLogicalMsgs != baseRes.TotalLogicalMsgs {
			t.Fatalf("workers=%d: msgs %v want %v", w, res.TotalLogicalMsgs, baseRes.TotalLogicalMsgs)
		}
		if res.Seconds != baseRes.Seconds {
			t.Fatalf("workers=%d: seconds %v want %v", w, res.Seconds, baseRes.Seconds)
		}
		if res.MaxMsgsPerRound != baseRes.MaxMsgsPerRound {
			t.Fatalf("workers=%d: peak %v want %v", w, res.MaxMsgsPerRound, baseRes.MaxMsgsPerRound)
		}
	}
}

// rngStreamProg records each machine's first RNG draws; the streams are
// seeded per logical machine, so worker scheduling must not change them.
type rngStreamProg struct {
	draws []uint64 // one slot per machine
}

func (p *rngStreamProg) Seed(ctx vcapi.Context[hopMsg]) {
	c := ctx.(*Context[hopMsg])
	p.draws[c.Machine()] = c.RNG().Uint64()
}

func (p *rngStreamProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {}

func TestRNGStreamsIndependentOfWorkers(t *testing.T) {
	g := graph.GenerateRing(32)
	part := graph.HashPartition(32, 4)
	draw := func(workers int) []uint64 {
		prog := &rngStreamProg{draws: make([]uint64, 4)}
		e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{Seed: 99, Workers: workers})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return prog.draws
	}
	base := draw(1)
	for _, w := range []int{2, 8} {
		got := draw(w)
		for m := range base {
			if got[m] != base[m] {
				t.Fatalf("workers=%d: machine %d drew %d want %d", w, m, got[m], base[m])
			}
		}
	}
}

func TestWorkersCappedAtMachineCount(t *testing.T) {
	g := graph.GenerateRing(8)
	part := graph.HashPartition(8, 3)
	e := New[hopMsg](g, part, newBFS(8, 0), nil, Options[hopMsg]{Workers: 64})
	if e.Workers() != 3 {
		t.Fatalf("workers must cap at the machine count 3, got %d", e.Workers())
	}
}

func TestCombinerIdenticalAcrossWorkers(t *testing.T) {
	g := graph.GenerateChungLu(500, 2000, 2.5, 31)
	part := graph.HashPartition(500, 8)
	dists := func(workers int) []int {
		prog := newBFS(500, 0)
		e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{
			Workers: workers,
			Combiner: func(a, b hopMsg) hopMsg {
				if a.Hop < b.Hop {
					return a
				}
				return b
			},
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return prog.dist
	}
	base := dists(1)
	got := dists(8)
	for v := range base {
		if got[v] != base[v] {
			t.Fatalf("combiner run diverges at %d: %d want %d", v, got[v], base[v])
		}
	}
}

// TestPerMachineRecordsFillCacheLines guards the layout that keeps pool
// workers off each other's cache lines: a machine's counters and its RNG
// stream, which its worker writes per message, are records of whole 64-byte
// lines, so a field added to either cannot put two machines back on one
// line.
func TestPerMachineRecordsFillCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"machineCounters": unsafe.Sizeof(machineCounters{}),
		"machineRNG":      unsafe.Sizeof(machineRNG{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d bytes, not a multiple of a 64-byte cache line", name, size)
		}
	}
}
