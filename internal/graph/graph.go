// Package graph provides the in-memory graph representation used by every
// engine in this repository: a compressed sparse row (CSR) adjacency
// structure, deterministic synthetic generators, replicas of the six
// datasets evaluated in the paper, and the hash partitioner VC-systems use
// to spread vertices across machines.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// VertexID identifies a vertex. Graphs in this repository are limited to
// 2^32 vertices, which covers every dataset in the paper.
type VertexID = uint32

// Graph is an immutable directed graph in CSR form. Undirected graphs are
// stored with both arc directions materialized, as the VC-systems in the
// paper do.
type Graph struct {
	n       int
	offsets []int64 // len n+1; adj[offsets[v]:offsets[v+1]] are v's out-neighbors
	adj     []VertexID
	weights []float32 // nil for unweighted graphs; else len(adj)
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed arcs stored.
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Weighted reports whether edge weights are present.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Weights returns the weights parallel to Neighbors(v), or nil for
// unweighted graphs.
func (g *Graph) Weights(v VertexID) []float32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// Weight returns the weight of the i-th out-edge of v (1 for unweighted
// graphs).
func (g *Graph) Weight(v VertexID, i int) float32 {
	if g.weights == nil {
		return 1
	}
	return g.weights[g.offsets[v]+int64(i)]
}

// AvgDegree returns the average out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.adj)) / float64(g.n)
}

// MaxDegree returns the maximum out-degree.
func (g *Graph) MaxDegree() int {
	best := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(VertexID(v)); d > best {
			best = d
		}
	}
	return best
}

// MemoryBytes estimates the resident size of the CSR structure, used by the
// cluster simulator to charge static graph memory.
func (g *Graph) MemoryBytes() int64 {
	b := int64(g.n+1)*8 + int64(len(g.adj))*4
	if g.weights != nil {
		b += int64(len(g.weights)) * 4
	}
	return b
}

// Edge is a directed arc with an optional weight, used by Builder.
type Edge struct {
	From, To VertexID
	Weight   float32
}

// Builder accumulates edges and produces a CSR Graph.
type Builder struct {
	n        int
	edges    []Edge
	weighted bool
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int, weighted bool) *Builder {
	return &Builder{n: n, weighted: weighted}
}

// AddEdge appends a directed arc. It panics if an endpoint is out of range.
func (b *Builder) AddEdge(from, to VertexID) {
	b.addEdge(from, to, 1)
}

// AddWeightedEdge appends a directed arc with a weight.
func (b *Builder) AddWeightedEdge(from, to VertexID, w float32) {
	b.addEdge(from, to, w)
}

func (b *Builder) addEdge(from, to VertexID, w float32) {
	if int(from) >= b.n || int(to) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", from, to, b.n))
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Weight: w})
}

// AddUndirectedEdge appends both arc directions.
func (b *Builder) AddUndirectedEdge(u, v VertexID) {
	b.AddEdge(u, v)
	b.AddEdge(v, u)
}

// AddUndirectedWeightedEdge appends both weighted arc directions.
func (b *Builder) AddUndirectedWeightedEdge(u, v VertexID, w float32) {
	b.AddWeightedEdge(u, v, w)
	b.AddWeightedEdge(v, u, w)
}

// Build sorts, deduplicates and freezes the accumulated edges into a CSR
// graph. Duplicate (from, to) arcs are collapsed keeping the smallest
// weight (NaN sorts lowest), and self-loops are dropped (no benchmark task
// in the paper uses them).
func (b *Builder) Build() *Graph {
	slices.SortFunc(b.edges, func(a, c Edge) int {
		if k, l := uint64(a.From)<<32|uint64(a.To), uint64(c.From)<<32|uint64(c.To); k != l {
			return cmp.Compare(k, l)
		}
		return cmp.Compare(a.Weight, c.Weight)
	})
	g := &Graph{n: b.n, offsets: make([]int64, b.n+1)}
	for i, e := range b.edges {
		if e.From == e.To || i > 0 && e.From == b.edges[i-1].From && e.To == b.edges[i-1].To {
			continue // a self-loop, or a duplicate of the no heavier arc before
		}
		g.offsets[e.From+1]++
		g.adj = append(g.adj, e.To)
		if b.weighted {
			g.weights = append(g.weights, e.Weight)
		}
	}
	for v := 0; v < b.n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	return g
}

// NewCSRView wraps pre-built CSR arrays as a Graph without copying. The
// out-of-core runner uses it to present one streamed edge partition as a
// full-width graph: offsets spans all n vertices, with zero degree outside
// the partition, so NumVertices and current-vertex Neighbors/Weights behave
// exactly like the in-memory graph. The arrays are aliased, not copied; the
// caller must not mutate them while the view is in use.
func NewCSRView(n int, offsets []int64, adj []VertexID, weights []float32) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: offsets length %d, want %d", len(offsets), n+1)
	}
	if n > 0 && offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
	}
	if n > 0 && offsets[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: offsets[n] = %d, want %d", offsets[n], len(adj))
	}
	if weights != nil && len(weights) != len(adj) {
		return nil, fmt.Errorf("graph: %d weights for %d edges", len(weights), len(adj))
	}
	return &Graph{n: n, offsets: offsets, adj: adj, weights: weights}, nil
}

// FromAdjacency constructs a graph directly from adjacency lists, useful in
// tests. adj[v] lists the out-neighbors of v.
func FromAdjacency(adj [][]VertexID) *Graph {
	b := NewBuilder(len(adj), false)
	for v, ns := range adj {
		for _, u := range ns {
			b.AddEdge(VertexID(v), u)
		}
	}
	return b.Build()
}
