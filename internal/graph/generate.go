package graph

import (
	"math"

	"vcmt/internal/randx"
)

// GenerateChungLu builds an undirected power-law graph with n vertices and
// approximately m undirected edges using the Chung–Lu model: vertex v gets
// an expected degree w_v ∝ (v+1)^(-1/(gamma-1)) and edges are sampled
// proportionally to w_u * w_v. This reproduces the heavy-tailed degree
// distributions of the social/web graphs in the paper at reduced scale.
func GenerateChungLu(n int, m int64, gamma float64, seed uint64) *Graph {
	if gamma <= 1 {
		panic("graph: Chung-Lu exponent must be > 1")
	}
	rng := randx.New(seed)
	exp := 1.0 / (gamma - 1)
	weights := make([]float64, n)
	var total float64
	for v := 0; v < n; v++ {
		weights[v] = math.Pow(float64(v+1), -exp)
		total += weights[v]
	}
	// Cumulative distribution for weighted endpoint sampling.
	cum := make([]float64, n)
	acc := 0.0
	for v := 0; v < n; v++ {
		acc += weights[v] / total
		cum[v] = acc
	}
	pick := func() VertexID {
		x := rng.Float64()
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return VertexID(lo)
	}
	b := NewBuilder(n, false)
	for i := int64(0); i < m; i++ {
		u := pick()
		v := pick()
		if u == v {
			continue
		}
		b.AddUndirectedEdge(u, v)
	}
	// Guarantee no isolated vertices: every task seeds work at every vertex
	// (BPPR) and isolated vertices would silently shrink workloads.
	g := b.Build()
	iso := 0
	for v := 0; v < n; v++ {
		if g.Degree(VertexID(v)) == 0 {
			iso++
		}
	}
	if iso == 0 {
		return g
	}
	b2 := NewBuilder(n, false)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			b2.AddEdge(VertexID(v), u)
		}
		if g.Degree(VertexID(v)) == 0 {
			b2.AddUndirectedEdge(VertexID(v), pick())
		}
	}
	return b2.Build()
}

// GenerateUniform builds an Erdős–Rényi-style undirected graph with n
// vertices and approximately m undirected edges.
func GenerateUniform(n int, m int64, seed uint64) *Graph {
	rng := randx.New(seed)
	b := NewBuilder(n, false)
	for i := int64(0); i < m; i++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddUndirectedEdge(u, v)
	}
	return b.Build()
}

// GenerateRing builds an n-cycle, useful for tests with known diameters.
func GenerateRing(n int) *Graph {
	b := NewBuilder(n, false)
	for v := 0; v < n; v++ {
		b.AddUndirectedEdge(VertexID(v), VertexID((v+1)%n))
	}
	return b.Build()
}

// GenerateGrid builds a rows×cols grid graph.
func GenerateGrid(rows, cols int) *Graph {
	b := NewBuilder(rows*cols, false)
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddUndirectedEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddUndirectedEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// GenerateStar builds a star with center 0 and n-1 leaves; the canonical
// high-degree-skew case for exercising the mirroring mechanism.
func GenerateStar(n int) *Graph {
	b := NewBuilder(n, false)
	for v := 1; v < n; v++ {
		b.AddUndirectedEdge(0, VertexID(v))
	}
	return b.Build()
}

// WithUniformWeights returns a weighted copy of g with pseudo-random edge
// weights in [lo, hi), for the weighted-shortest-path tests. The weight of
// arc (u,v) equals the weight of (v,u) so undirected semantics hold.
func WithUniformWeights(g *Graph, lo, hi float64, seed uint64) *Graph {
	b := NewBuilder(g.NumVertices(), true)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < u {
				// Derive the weight from the canonical arc only, then mirror.
				rng := randx.New(seed ^ uint64(v)<<32 ^ uint64(u))
				w := float32(lo + (hi-lo)*rng.Float64())
				b.AddUndirectedWeightedEdge(VertexID(v), u, w)
			}
		}
	}
	return b.Build()
}
