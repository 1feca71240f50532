package engine

import (
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// aggProg sums the vertex count via an aggregator each round, for three
// rounds, and records what each round observed from the previous one.
type aggProg struct {
	rounds   int
	observed []float64
}

func (p *aggProg) Seed(ctx vcapi.Context[hopMsg]) {
	c := ctx.(*Context[hopMsg])
	for _, v := range c.OwnedVertices() {
		c.Aggregate("count", 1)
		c.ActivateNextRound(v)
	}
}

func (p *aggProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {
	c := ctx.(*Context[hopMsg])
	if v == 0 {
		p.observed = append(p.observed, c.AggregatorGet("count"))
	}
	c.Aggregate("count", 1)
	if c.Round() < 3 {
		c.ActivateNextRound(v)
	}
}

func TestAggregatorSum(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 2)
	prog := &aggProg{}
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{})
	e.RegisterAggregator("count", AggSum)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Every round all 10 vertices contribute 1; vertex 0 observes the
	// previous round's total.
	for i, got := range prog.observed {
		if got != 10 {
			t.Fatalf("round %d observed %v want 10", i, got)
		}
	}
	if e.AggregatorValue("count") != 10 {
		t.Fatalf("final aggregator %v", e.AggregatorValue("count"))
	}
}

func TestAggregatorMinMax(t *testing.T) {
	g := graph.GenerateRing(6)
	part := graph.HashPartition(6, 2)
	prog := &minmaxProg{}
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{})
	e.RegisterAggregator("min", AggMin)
	e.RegisterAggregator("max", AggMax)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.AggregatorValue("min") != 0 || e.AggregatorValue("max") != 5 {
		t.Fatalf("min=%v max=%v", e.AggregatorValue("min"), e.AggregatorValue("max"))
	}
}

type minmaxProg struct{}

func (p *minmaxProg) Seed(ctx vcapi.Context[hopMsg]) {
	c := ctx.(*Context[hopMsg])
	for _, v := range c.OwnedVertices() {
		c.Aggregate("min", float64(v))
		c.Aggregate("max", float64(v))
	}
}
func (p *minmaxProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {}

func TestAggregateToUnregisteredNameIsDropped(t *testing.T) {
	g := graph.GenerateRing(4)
	part := graph.HashPartition(4, 1)
	prog := &minmaxProg{}
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.AggregatorValue("min") != 0 {
		t.Fatal("unregistered aggregator must read zero")
	}
}

// combSumProg sends several messages to one vertex and records how many
// arrive after combining.
type combSumProg struct {
	got   []hopMsg
	round int
}

func (p *combSumProg) Seed(ctx vcapi.Context[hopMsg]) {
	c := ctx.(*Context[hopMsg])
	for _, v := range c.OwnedVertices() {
		if v != 7 {
			c.Send(7, hopMsg{Hop: int32(v)})
		}
	}
}

func (p *combSumProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {
	p.got = append(p.got, msgs...)
}

func TestCombinerReducesInbox(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 4)
	prog := &combSumProg{}
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{
		Combiner: func(a, b hopMsg) hopMsg { return hopMsg{Hop: a.Hop + b.Hop} },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(prog.got) != 1 {
		t.Fatalf("combined inbox should hold 1 message, got %d", len(prog.got))
	}
	// Sum of 0..9 except 7 = 45 - 7 = 38.
	if prog.got[0].Hop != 38 {
		t.Fatalf("combined sum %d want 38", prog.got[0].Hop)
	}
}

func TestCombinerPreservesBFS(t *testing.T) {
	// A min-combiner must not change BFS results.
	g := graph.GenerateChungLu(300, 1200, 2.5, 9)
	ref := runBFS(t, g, 4)
	part := graph.HashPartition(300, 4)
	prog := newBFS(300, 0)
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{
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
	for v := range ref.dist {
		if prog.dist[v] != ref.dist[v] {
			t.Fatalf("combiner changed BFS at %d", v)
		}
	}
}

// tickProg iterates N rounds using forced activation only (no messages).
// ticks is indexed by vertex so concurrent machines write disjoint slots.
type tickProg struct{ ticks []int }

func (p *tickProg) Seed(ctx vcapi.Context[hopMsg]) {
	c := ctx.(*Context[hopMsg])
	for _, v := range c.OwnedVertices() {
		c.ActivateNextRound(v)
	}
}

func (p *tickProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {
	c := ctx.(*Context[hopMsg])
	p.ticks[v]++
	if p.ticks[v] < 5 {
		c.ActivateNextRound(v)
	}
}

func TestForcedActivationWithoutMessages(t *testing.T) {
	g := graph.GenerateRing(8)
	part := graph.HashPartition(8, 2)
	prog := &tickProg{ticks: make([]int, 8)}
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		if prog.ticks[graph.VertexID(v)] != 5 {
			t.Fatalf("vertex %d ticked %d times want 5", v, prog.ticks[graph.VertexID(v)])
		}
	}
}

func TestForcedActivationCountsAsActive(t *testing.T) {
	g := graph.GenerateRing(8)
	part := graph.HashPartition(8, 2)
	run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(2), System: sim.PregelPlus})
	prog := &tickProg{ticks: make([]int, 8)}
	e := New[hopMsg](g, part, prog, run, Options[hopMsg]{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Seed + 5 forced rounds.
	if got := run.Result().Rounds; got != 6 {
		t.Fatalf("rounds=%d want 6", got)
	}
}
