package engine

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// bfsProg floods hop counts from a source: a minimal vertex program with a
// known round count on known topologies.
type bfsProg struct {
	src  graph.VertexID
	dist []int
}

type hopMsg struct{ Hop int32 }

func newBFS(n int, src graph.VertexID) *bfsProg {
	d := make([]int, n)
	for i := range d {
		d[i] = -1
	}
	return &bfsProg{src: src, dist: d}
}

func (p *bfsProg) Seed(ctx vcapi.Context[hopMsg]) {
	for _, v := range ctx.OwnedVertices() {
		if v == p.src {
			p.dist[v] = 0
			for _, u := range ctx.Graph().Neighbors(v) {
				ctx.Send(u, hopMsg{Hop: 1})
			}
		}
	}
}

func (p *bfsProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {
	best := int32(1 << 30)
	for _, m := range msgs {
		if m.Hop < best {
			best = m.Hop
		}
	}
	if p.dist[v] != -1 && int32(p.dist[v]) <= best {
		return
	}
	p.dist[v] = int(best)
	for _, u := range ctx.Graph().Neighbors(v) {
		ctx.Send(u, hopMsg{Hop: best + 1})
	}
}

func runBFS(t *testing.T, g *graph.Graph, k int) *bfsProg {
	t.Helper()
	part := graph.HashPartition(g.NumVertices(), k)
	prog := newBFS(g.NumVertices(), 0)
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{Seed: 1})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestBFSOnRing(t *testing.T) {
	g := graph.GenerateRing(10)
	prog := runBFS(t, g, 3)
	want := []int{0, 1, 2, 3, 4, 5, 4, 3, 2, 1}
	for v, d := range prog.dist {
		if d != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, d, want[v])
		}
	}
}

func TestBFSOnGridMatchesManhattanish(t *testing.T) {
	g := graph.GenerateGrid(4, 5)
	prog := runBFS(t, g, 4)
	// Vertex (r,c) has id r*5+c; BFS distance from (0,0) is r+c.
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			if prog.dist[r*5+c] != r+c {
				t.Fatalf("dist(%d,%d)=%d want %d", r, c, prog.dist[r*5+c], r+c)
			}
		}
	}
}

func TestBFSPartitionInvariance(t *testing.T) {
	g := graph.GenerateChungLu(500, 2500, 2.5, 3)
	ref := runBFS(t, g, 1)
	for _, k := range []int{2, 4, 8} {
		got := runBFS(t, g, k)
		for v := range ref.dist {
			if got.dist[v] != ref.dist[v] {
				t.Fatalf("k=%d: dist[%d]=%d want %d", k, v, got.dist[v], ref.dist[v])
			}
		}
	}
}

func TestEngineHaltsAndCountsRounds(t *testing.T) {
	g := graph.GenerateRing(12)
	part := graph.HashPartition(12, 2)
	prog := newBFS(12, 0)
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Ring of 12: farthest vertex is 6 hops; seed round + 6 propagation
	// rounds + 1 final round where opposing waves cancel.
	if e.Rounds() < 7 || e.Rounds() > 8 {
		t.Fatalf("rounds=%d want 7..8", e.Rounds())
	}
}

func TestMaxRoundsEnforced(t *testing.T) {
	g := graph.GenerateRing(100)
	part := graph.HashPartition(100, 2)
	prog := newBFS(100, 0)
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{MaxRounds: 3})
	err := e.Run()
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("want ErrMaxRounds, got %v", err)
	}
}

func TestStatsReportedToRun(t *testing.T) {
	g := graph.GenerateRing(16)
	part := graph.HashPartition(16, 4)
	run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(4), System: sim.PregelPlus})
	prog := newBFS(16, 0)
	e := New[hopMsg](g, part, prog, run, Options[hopMsg]{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res := run.Result()
	if res.Rounds != e.Rounds() {
		t.Fatalf("run rounds %d != engine rounds %d", res.Rounds, e.Rounds())
	}
	if res.TotalLogicalMsgs <= 0 {
		t.Fatal("no messages recorded")
	}
	if res.Seconds <= 0 {
		t.Fatal("no time recorded")
	}
}

// weighted messages: each message carries a count.
type countMsg struct{ N int64 }

type fanoutProg struct{ did bool }

func (p *fanoutProg) Seed(ctx vcapi.Context[countMsg]) {
	for _, v := range ctx.OwnedVertices() {
		if v == 0 {
			for _, u := range ctx.Graph().Neighbors(v) {
				ctx.Send(u, countMsg{N: 10})
			}
		}
	}
}
func (p *fanoutProg) Compute(ctx vcapi.Context[countMsg], v graph.VertexID, msgs []countMsg) {}

func TestWeightFuncDrivesLogicalCounts(t *testing.T) {
	g := graph.GenerateStar(5) // center 0 with 4 leaves
	part := graph.HashPartition(5, 2)
	run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(2), System: sim.PregelPlus})
	e := New[countMsg](g, part, &fanoutProg{}, run, Options[countMsg]{
		Weight: func(m countMsg) int64 { return m.N },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res := run.Result()
	// 4 physical messages, each weighing 10.
	if res.TotalLogicalMsgs != 40 {
		t.Fatalf("logical msgs %v want 40", res.TotalLogicalMsgs)
	}
}

// broadcastProg exercises Broadcast from the star center. received is
// atomic because leaves on different machines compute concurrently.
type broadcastProg struct{ received atomic.Int64 }

func (p *broadcastProg) Seed(ctx vcapi.Context[countMsg]) {
	for _, v := range ctx.OwnedVertices() {
		if v == 0 {
			ctx.Broadcast(0, countMsg{N: 1})
		}
	}
}
func (p *broadcastProg) Compute(ctx vcapi.Context[countMsg], v graph.VertexID, msgs []countMsg) {
	p.received.Add(int64(len(msgs)))
}

func TestBroadcastDeliversToAllNeighbors(t *testing.T) {
	g := graph.GenerateStar(33)
	part := graph.HashPartition(33, 4)
	prog := &broadcastProg{}
	e := New[countMsg](g, part, prog, nil, Options[countMsg]{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := prog.received.Load(); got != 32 {
		t.Fatalf("received=%d want 32", got)
	}
}

func TestMirroringReducesRemotePhysicalMessages(t *testing.T) {
	g := graph.GenerateStar(65) // center degree 64 ≥ mirror threshold
	part := graph.HashPartition(65, 8)

	runPlain := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8, System: sim.PregelPlus})
	e1 := New[countMsg](g, part, &broadcastProg{}, runPlain, Options[countMsg]{})
	if err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	runMirror := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8, System: sim.PregelPlusMirror})
	e2 := New[countMsg](g, part, &broadcastProg{}, runMirror, Options[countMsg]{})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	// Plain: ~64 remote wire messages (one per remote leaf). Mirrored: at
	// most 7 (one per other machine).
	plain := runPlain.Result().WireBytesTotal
	mirrored := runMirror.Result().WireBytesTotal
	if mirrored >= plain/4 {
		t.Fatalf("mirroring should slash wire bytes: plain=%v mirrored=%v", plain, mirrored)
	}
}

func TestStateReporterFeedsMemoryModel(t *testing.T) {
	g := graph.GenerateRing(8)
	part := graph.HashPartition(8, 2)
	cfg := sim.JobConfig{
		Cluster: sim.Galaxy8.WithMachines(2), System: sim.PregelPlus,
		Task: sim.TaskMemModel{StateBytesPerEntry: 1 << 20},
	}
	run := sim.NewRun(cfg)
	prog := &statefulBFS{bfsProg: *newBFS(8, 0)}
	e := New[hopMsg](g, part, prog, run, Options[hopMsg]{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if run.Result().PeakMemBytes < 1000*(1<<20) {
		t.Fatalf("state entries not charged: peak=%v", run.Result().PeakMemBytes)
	}
}

type statefulBFS struct{ bfsProg }

func (p *statefulBFS) StateEntries(machine int) int64 { return 1000 }

type hopCodec struct{}

func (hopCodec) Encode(buf []byte, m hopMsg) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(m.Hop))
	return append(buf, b[:]...)
}
func (hopCodec) Decode(data []byte) (hopMsg, int) {
	return hopMsg{Hop: int32(binary.LittleEndian.Uint32(data))}, 4
}

type countCodec struct{}

func (countCodec) Encode(buf []byte, m countMsg) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(m.N))
	return append(buf, b[:]...)
}
func (countCodec) Decode(data []byte) (countMsg, int) {
	return countMsg{N: int64(binary.LittleEndian.Uint64(data))}, 8
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.GenerateChungLu(300, 1500, 2.5, 5)
	part := graph.HashPartition(300, 4)
	mk := func() sim.JobResult {
		run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(4), System: sim.PregelPlus})
		prog := newBFS(300, 0)
		e := New[hopMsg](g, part, prog, run, Options[hopMsg]{Seed: 77})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return run.Result()
	}
	a, b := mk(), mk()
	if a.TotalLogicalMsgs != b.TotalLogicalMsgs || a.Rounds != b.Rounds || a.Seconds != b.Seconds {
		t.Fatalf("engine runs not deterministic: %+v vs %+v", a, b)
	}
}

func TestContextAccessors(t *testing.T) {
	g := graph.GenerateRing(6)
	part := graph.RangePartition(6, 2)
	var sawMachine, sawRound bool
	prog := &probeProg{onCompute: func(ctx vcapi.Context[hopMsg], v graph.VertexID) {
		if ctx.Machine() == part.Owner(v) {
			sawMachine = true
		}
		if ctx.Round() >= 2 {
			sawRound = true
		}
		// Errorf, not Fatalf: Compute may run on a pool goroutine.
		if ctx.Vertex() != v {
			t.Errorf("ctx.Vertex()=%d want %d", ctx.Vertex(), v)
		}
		if ctx.Graph() != g {
			t.Error("ctx.Graph() mismatch")
		}
		if ctx.RNG() == nil {
			t.Error("ctx.RNG() nil")
		}
	}}
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawMachine || !sawRound {
		t.Fatal("context accessors not exercised")
	}
}

type probeProg struct {
	onCompute func(vcapi.Context[hopMsg], graph.VertexID)
}

// Seed sends from machine 0 only; Seed runs once per machine, possibly
// concurrently, so a shared "already sent" flag would race.
func (p *probeProg) Seed(ctx vcapi.Context[hopMsg]) {
	if ctx.Machine() == 0 {
		ctx.Send(3, hopMsg{Hop: 1})
	}
}
func (p *probeProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {
	p.onCompute(ctx, v)
}
