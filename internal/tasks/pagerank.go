package tasks

import (
	"fmt"

	"vcmt/internal/engine"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// damping is both PageRanks' damping factor d. It is typed, so 1 − d is
// the float64 difference, not the exact 0.15 an untyped constant would give.
const damping float64 = 0.85

// RankMsg carries a fragment of PageRank mass along one edge.
type RankMsg struct {
	Mass float32
}

// PageRankConfig configures the classic (non-personalized) PageRank
// computation used by Table 4's sync-vs-async comparison: a global metric
// whose workload resembles a single-source query, in contrast with BPPR's
// per-vertex batch workload (§4.8).
type PageRankConfig struct {
	// Iterations is the number of power iterations (default 30).
	Iterations int
	Seed       uint64
	// Workers sets the engine worker-pool size (see engine.Options.Workers);
	// results are identical for every value.
	Workers int
}

// PageRank runs global PageRank on the engine and returns the rank vector.
func PageRank(g *graph.Graph, part *graph.Partition, run *sim.Run, cfg PageRankConfig) ([]float64, error) {
	if cfg.Iterations == 0 {
		cfg.Iterations = 30
	}
	n := g.NumVertices()
	prog := &prProg{
		cfg:  cfg,
		rank: make([]float64, n),
		base: (1 - damping) / float64(n),
	}
	for v := range prog.rank {
		prog.rank[v] = 1 / float64(n)
	}
	e := engine.New[RankMsg](g, part, prog, run, engine.Options[RankMsg]{
		MaxRounds: cfg.Iterations + 2,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
	})
	if err := e.Run(); err != nil {
		return nil, fmt.Errorf("tasks: PageRank: %w", err)
	}
	return prog.rank, nil
}

type prProg struct {
	cfg  PageRankConfig
	rank []float64
	base float64
}

func (p *prProg) Seed(ctx vcapi.Context[RankMsg]) {
	for _, v := range ctx.OwnedVertices() {
		p.scatter(ctx, v)
	}
}

func (p *prProg) Compute(ctx vcapi.Context[RankMsg], v graph.VertexID, msgs []RankMsg) {
	var sum float64
	for _, m := range msgs {
		sum += float64(m.Mass)
	}
	p.rank[v] = p.base + damping*sum
	// Round 1 is the seed scatter; iteration i finishes at round i+1.
	if ctx.Round() <= p.cfg.Iterations {
		p.scatter(ctx, v)
	}
}

func (p *prProg) scatter(ctx vcapi.Context[RankMsg], v graph.VertexID) {
	ns := ctx.Graph().Neighbors(v)
	if len(ns) == 0 {
		return
	}
	share := float32(p.rank[v] / float64(len(ns)))
	ctx.SendAll(ns, RankMsg{Mass: share})
}
