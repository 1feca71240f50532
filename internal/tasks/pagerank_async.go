package tasks

import (
	"fmt"

	"vcmt/internal/gas"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// AsyncPageRankConfig configures the asynchronous (GraphLab(async))
// PageRank of Table 4: vertices execute as soon as input is ready and
// propagate only rank deltas above a tolerance, which is why asynchronous
// execution wins on this light, convergence-driven task (§4.8).
type AsyncPageRankConfig struct {
	// Tolerance is the minimum unpropagated rank delta that re-activates
	// neighbors, relative to the uniform rank 1/n (default 0.03); smaller
	// is more accurate but costlier. The relative form keeps convergence
	// behaviour graph-size independent.
	Tolerance float64
	Seed      uint64
}

// AsyncPageRank runs delta-PageRank on the asynchronous executor and
// returns the rank vector.
func AsyncPageRank(g *graph.Graph, part *graph.Partition, run *sim.Run, cfg AsyncPageRankConfig) ([]float64, error) {
	if cfg.Tolerance == 0 {
		cfg.Tolerance = 0.03
	}
	n := g.NumVertices()
	cfg.Tolerance /= float64(n)
	prog := &asyncPRProg{
		cfg:  cfg,
		rank: make([]float64, n),
		sent: make([]float64, n),
	}
	a := gas.NewAsync[RankMsg](g, part, prog, run, gas.Options[RankMsg]{Seed: cfg.Seed})
	if err := a.Run(); err != nil {
		return nil, fmt.Errorf("tasks: async PageRank: %w", err)
	}
	return prog.rank, nil
}

// asyncPRProg solves r = (1-d)/n + d·Σ_{u→v} r(u)/deg(u) by asynchronous
// delta propagation: each vertex tracks how much of its rank it has
// already pushed to neighbors and pushes the difference once it exceeds
// the tolerance. The iteration is a contraction (d < 1), so it converges
// regardless of execution order.
type asyncPRProg struct {
	cfg  AsyncPageRankConfig
	rank []float64
	sent []float64 // rank already propagated to neighbors
}

func (p *asyncPRProg) Seed(ctx vcapi.Context[RankMsg]) {
	base := (1 - damping) / float64(len(p.rank))
	for _, v := range ctx.OwnedVertices() {
		p.rank[v] = base
		p.scatter(ctx, v)
	}
}

func (p *asyncPRProg) Compute(ctx vcapi.Context[RankMsg], v graph.VertexID, msgs []RankMsg) {
	var delta float64
	for _, m := range msgs {
		delta += float64(m.Mass)
	}
	p.rank[v] += damping * delta
	p.scatter(ctx, v)
}

func (p *asyncPRProg) scatter(ctx vcapi.Context[RankMsg], v graph.VertexID) {
	unsent := p.rank[v] - p.sent[v]
	if unsent <= p.cfg.Tolerance {
		return
	}
	ns := ctx.Graph().Neighbors(v)
	if len(ns) == 0 {
		return
	}
	p.sent[v] = p.rank[v]
	share := float32(unsent / float64(len(ns)))
	ctx.SendAll(ns, RankMsg{Mass: share})
}
