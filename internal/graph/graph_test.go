package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices=%d want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges=%d want 3", g.NumEdges())
	}
	if got := g.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Neighbors(0)=%v", got)
	}
	if g.Degree(1) != 1 || g.Degree(2) != 0 || g.Degree(3) != 0 {
		t.Fatal("unexpected degrees")
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1) // self loop
	b.AddEdge(2, 0)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges=%d want 2 after dedup+selfloop drop", g.NumEdges())
	}
}

func TestBuilderKeepsSmallestDuplicateWeight(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(0, 1, 2)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges=%d want 1", g.NumEdges())
	}
	if w := g.Weight(0, 0); w != 2 {
		t.Fatalf("Weight=%v want 2", w)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range edge")
		}
	}()
	NewBuilder(2, false).AddEdge(0, 5)
}

func TestUndirectedEdgesSymmetric(t *testing.T) {
	b := NewBuilder(5, false)
	b.AddUndirectedEdge(1, 4)
	b.AddUndirectedEdge(2, 3)
	g := b.Build()
	for v := 0; v < 5; v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			found := false
			for _, w := range g.Neighbors(u) {
				if w == VertexID(v) {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) has no reverse", v, u)
			}
		}
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]VertexID{{1, 2}, {2}, {}})
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestMemoryBytesPositiveAndMonotone(t *testing.T) {
	small := GenerateRing(10)
	big := GenerateRing(1000)
	if small.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes must be positive")
	}
	if big.MemoryBytes() <= small.MemoryBytes() {
		t.Fatal("bigger graph must report more memory")
	}
}

func TestGenerateRing(t *testing.T) {
	g := GenerateRing(8)
	for v := 0; v < 8; v++ {
		if g.Degree(VertexID(v)) != 2 {
			t.Fatalf("ring degree(%d)=%d want 2", v, g.Degree(VertexID(v)))
		}
	}
}

func TestGenerateGrid(t *testing.T) {
	g := GenerateGrid(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("n=%d want 12", g.NumVertices())
	}
	// 2*(rows*(cols-1) + cols*(rows-1)) arcs
	want := int64(2 * (3*3 + 4*2))
	if g.NumEdges() != want {
		t.Fatalf("m=%d want %d", g.NumEdges(), want)
	}
}

func TestGenerateStarSkew(t *testing.T) {
	g := GenerateStar(100)
	if g.Degree(0) != 99 {
		t.Fatalf("center degree=%d want 99", g.Degree(0))
	}
	if g.MaxDegree() != 99 {
		t.Fatalf("MaxDegree=%d want 99", g.MaxDegree())
	}
}

func TestGenerateChungLuProperties(t *testing.T) {
	g := GenerateChungLu(2000, 10000, 2.5, 7)
	if g.NumVertices() != 2000 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if g.NumEdges() < 10000 { // ~2*m arcs minus collisions
		t.Fatalf("too few arcs: %d", g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(VertexID(v)) == 0 {
			t.Fatalf("vertex %d isolated", v)
		}
	}
	// Heavy tail: max degree far above average.
	if float64(g.MaxDegree()) < 5*g.AvgDegree() {
		t.Fatalf("degree distribution not skewed: max=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestGenerateChungLuDeterministic(t *testing.T) {
	a := GenerateChungLu(500, 2000, 2.5, 42)
	b := GenerateChungLu(500, 2000, 2.5, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for v := 0; v < 500; v++ {
		na, nb := a.Neighbors(VertexID(v)), b.Neighbors(VertexID(v))
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d neighbor %d differs", v, i)
			}
		}
	}
}

func TestGenerateUniform(t *testing.T) {
	g := GenerateUniform(100, 500, 3)
	if g.NumVertices() != 100 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if g.NumEdges() < 800 {
		t.Fatalf("arcs=%d want ~1000", g.NumEdges())
	}
}

func TestWithUniformWeightsSymmetric(t *testing.T) {
	g := WithUniformWeights(GenerateRing(10), 1, 5, 11)
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	for v := 0; v < 10; v++ {
		ns := g.Neighbors(VertexID(v))
		for i, u := range ns {
			wv := g.Weight(VertexID(v), i)
			// find reverse weight
			for j, w := range g.Neighbors(u) {
				if w == VertexID(v) {
					if g.Weight(u, j) != wv {
						t.Fatalf("asymmetric weight on (%d,%d)", v, u)
					}
				}
			}
			if wv < 1 || wv >= 5 {
				t.Fatalf("weight %v out of range", wv)
			}
		}
	}
}

func TestHashPartitionCoversAllMachines(t *testing.T) {
	p := HashPartition(10000, 8)
	if p.NumMachines() != 8 {
		t.Fatalf("machines=%d", p.NumMachines())
	}
	total := 0
	for m := 0; m < 8; m++ {
		c := p.Count(m)
		if c == 0 {
			t.Fatalf("machine %d got no vertices", m)
		}
		if c < 10000/8-400 || c > 10000/8+400 {
			t.Fatalf("machine %d badly balanced: %d", m, c)
		}
		total += c
	}
	if total != 10000 {
		t.Fatalf("counts sum to %d", total)
	}
}

func TestHashPartitionOwnerStable(t *testing.T) {
	p1 := HashPartition(100, 4)
	p2 := HashPartition(100, 4)
	for v := 0; v < 100; v++ {
		if p1.Owner(VertexID(v)) != p2.Owner(VertexID(v)) {
			t.Fatal("owner not deterministic")
		}
	}
}

func TestRangePartition(t *testing.T) {
	p := RangePartition(10, 3)
	if p.Owner(0) != 0 || p.Owner(3) != 0 {
		t.Fatal("range partition wrong for low ids")
	}
	if p.Owner(9) != 2 {
		t.Fatalf("Owner(9)=%d want 2", p.Owner(9))
	}
	if p.Count(0)+p.Count(1)+p.Count(2) != 10 {
		t.Fatal("counts do not sum")
	}
}

func TestPartitionPanicsOnZeroMachines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HashPartition(10, 0)
}

func TestDatasetRegistry(t *testing.T) {
	names := DatasetNames()
	if len(names) != 6 {
		t.Fatalf("want 6 datasets, got %d", len(names))
	}
	for _, name := range names {
		d, err := Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.ScaleNodes() < 1 || d.PaperEdges < d.Edges {
			t.Fatalf("%s: scale factors must be >= 1", name)
		}
		// Replica preserves average degree within 20%.
		paperAvg := float64(d.PaperEdges) / float64(d.PaperNodes)
		replicaAvg := float64(d.Edges) / float64(d.Nodes)
		if replicaAvg < paperAvg*0.8 || replicaAvg > paperAvg*1.25 {
			t.Fatalf("%s: avg degree %0.1f vs paper %0.1f", name, replicaAvg, paperAvg)
		}
	}
	if _, err := Dataset("nope"); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestDatasetLoadCachedAndSized(t *testing.T) {
	d, err := Dataset("Web-St")
	if err != nil {
		t.Fatal(err)
	}
	g1 := d.Load()
	g2 := d.Load()
	if g1 != g2 {
		t.Fatal("Load must cache")
	}
	if g1.NumVertices() != d.Nodes {
		t.Fatalf("n=%d want %d", g1.NumVertices(), d.Nodes)
	}
	if g1.NumEdges() < int64(float64(d.Edges)*0.7) {
		t.Fatalf("arcs=%d want near %d", g1.NumEdges(), d.Edges)
	}
}

// TestWriteEdgeListBytes pins the export format: one "from to" line per arc
// in CSR order, with the weight appended in %g form on a weighted graph.
func TestWriteEdgeListBytes(t *testing.T) {
	plain := NewBuilder(4, false)
	plain.AddUndirectedEdge(0, 2)
	plain.AddEdge(3, 1)
	weighted := NewBuilder(3, true)
	weighted.AddWeightedEdge(0, 1, 0.5)
	weighted.AddWeightedEdge(2, 0, 3)
	weighted.AddWeightedEdge(0, 2, 1e-7)
	for _, c := range []struct {
		g    *Graph
		want string
	}{
		{plain.Build(), "0 2\n2 0\n3 1\n"},
		{weighted.Build(), "0 1 0.5\n0 2 1e-07\n2 0 3\n"},
		{NewBuilder(2, false).Build(), ""},
	} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, c.g); err != nil {
			t.Fatal(err)
		}
		if buf.String() != c.want {
			t.Errorf("WriteEdgeList wrote %q, want %q", buf.String(), c.want)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := GenerateChungLu(300, 1500, 2.3, 21)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryRoundTripWeighted(t *testing.T) {
	g := WithUniformWeights(GenerateRing(20), 1, 3, 8)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Weighted() {
		t.Fatal("weights lost in round trip")
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewBuffer(make([]byte, 64))); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(VertexID(v)), b.Neighbors(VertexID(v))
		if len(na) != len(nb) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("neighbor mismatch at %d[%d]", v, i)
			}
			if a.Weight(VertexID(v), i) != b.Weight(VertexID(v), i) {
				t.Fatalf("weight mismatch at %d[%d]", v, i)
			}
		}
	}
}

func TestPropertyBuildPreservesEdgeCount(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 64
		b := NewBuilder(n, false)
		type key struct{ f, t VertexID }
		uniq := map[key]bool{}
		for i := 0; i+1 < len(raw); i += 2 {
			from := VertexID(raw[i] % n)
			to := VertexID(raw[i+1] % n)
			b.AddEdge(from, to)
			if from != to {
				uniq[key{from, to}] = true
			}
		}
		return b.Build().NumEdges() == int64(len(uniq))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNeighborsSorted(t *testing.T) {
	f := func(seed uint64) bool {
		g := GenerateUniform(50, 200, seed)
		for v := 0; v < g.NumVertices(); v++ {
			ns := g.Neighbors(VertexID(v))
			for i := 1; i < len(ns); i++ {
				if ns[i-1] >= ns[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMustLoadAndWeightsAccessors(t *testing.T) {
	g := MustLoad("Web-St")
	if g.NumVertices() == 0 {
		t.Fatal("MustLoad returned empty graph")
	}
	if g.Weights(0) != nil {
		t.Fatal("unweighted graph must report nil weights")
	}
	wg := WithUniformWeights(GenerateRing(6), 1, 2, 3)
	if got := wg.Weights(0); len(got) != wg.Degree(0) {
		t.Fatalf("Weights len %d want %d", len(got), wg.Degree(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLoad of unknown dataset must panic")
		}
	}()
	MustLoad("nope")
}

func TestBuilderAddUndirectedEdge(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddUndirectedEdge(0, 1)
	if n := b.Build().NumEdges(); n != 2 {
		t.Fatalf("NumEdges=%d want 2", n)
	}
}

// TestBuildMatchesComparisonSort checks Build's counting sort against the
// comparison sort it replaced: one sort.Slice of every arc by (From, To,
// Weight), then the same dedup sweep. Random edge lists with duplicates,
// self-loops and repeated weights must give identical CSR arrays.
func TestBuildMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := range 50 {
		n := 1 + rng.IntN(40)
		weighted := trial%2 == 0
		b := NewBuilder(n, weighted)
		var edges []Edge
		for range rng.IntN(6 * n) {
			e := Edge{From: VertexID(rng.IntN(n)), To: VertexID(rng.IntN(n)), Weight: float32(rng.IntN(4)) + 0.5}
			if !weighted {
				e.Weight = 0
			}
			edges = append(edges, e)
			b.addEdge(e.From, e.To, e.Weight)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			if edges[i].To != edges[j].To {
				return edges[i].To < edges[j].To
			}
			return edges[i].Weight < edges[j].Weight
		})
		want := &Graph{n: n, offsets: make([]int64, n+1)}
		for i, e := range edges {
			if e.From == e.To || i > 0 && e.From == edges[i-1].From && e.To == edges[i-1].To {
				continue
			}
			want.offsets[e.From+1]++
			want.adj = append(want.adj, e.To)
			if weighted {
				want.weights = append(want.weights, e.Weight)
			}
		}
		for v := range n {
			want.offsets[v+1] += want.offsets[v]
		}
		g := b.Build()
		if !slices.Equal(g.offsets, want.offsets) || !slices.Equal(g.adj, want.adj) || !slices.Equal(g.weights, want.weights) {
			t.Fatalf("trial %d: Build's CSR differs from the comparison sort's", trial)
		}
	}
}

// TestLiveJournalDumpPinned pins the v3 dump of the LiveJournal replica,
// generated and written exactly as graphgen -dataset LiveJournal does, so a
// change to the generator or to Build's sort that moves a single arc fails
// here rather than in every downstream digest.
func TestLiveJournalDumpPinned(t *testing.T) {
	const want = "3a2c65ac818a83994b61a2b3774a581b819ea7bc601e929868e7cb400847be83"
	d, err := Dataset("LiveJournal")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := WriteBinary(h, GenerateChungLu(d.Nodes, d.Edges/2, d.Gamma, d.Seed)); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("LiveJournal replica dump sha256 %s, pinned %s", got, want)
	}
}
