package graph

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DatasetSpec describes one of the paper's six benchmark datasets
// (Table 1) together with the scale factor used by this reproduction.
// The synthetic replica preserves the average degree and a heavy-tailed
// degree distribution; PaperNodes/PaperEdges record the original sizes so
// the cluster simulator can extrapolate measured statistics back to paper
// scale (see internal/sim.Extrapolation).
type DatasetSpec struct {
	Name string
	// Paper-scale sizes (directed arc count, i.e. 2x undirected edges for
	// the social graphs, matching how VC-systems store them).
	PaperNodes int64
	PaperEdges int64
	// Replica sizes actually generated.
	Nodes int
	Edges int64
	// Gamma is the power-law exponent for the Chung-Lu generator.
	Gamma float64
	// Seed makes the replica deterministic.
	Seed uint64
}

// ScaleNodes returns the node-count ratio paper/replica.
func (d DatasetSpec) ScaleNodes() float64 {
	return float64(d.PaperNodes) / float64(d.Nodes)
}

// PaperBytesPerMachine estimates the paper-scale static graph footprint of
// one of `machines` machines: a CSR of 16 B per vertex (offsets + state) and
// 8 B per arc (id + metadata), split evenly.
func (d DatasetSpec) PaperBytesPerMachine(machines int) float64 {
	return (float64(d.PaperNodes)*16 + float64(d.PaperEdges)*8) / float64(machines)
}

// datasetTable enumerates the six datasets of Table 1. Small graphs are
// scaled 1/16 in nodes and edges; the billion-edge graphs (Twitter,
// Friendster) 1/1024. Average degree is preserved exactly, which keeps
// per-vertex message behaviour (and hence the round-congestion tradeoff)
// intact. Replicas are generated lazily and cached so tests that touch one
// dataset do not pay for all six.
var datasetTable = []DatasetSpec{
	{Name: "Web-St", PaperNodes: 281_900, PaperEdges: 2_300_000, Nodes: 4_405, Edges: 35_937, Gamma: 2.4, Seed: 101},
	{Name: "DBLP", PaperNodes: 613_600, PaperEdges: 4_000_000, Nodes: 9_588, Edges: 62_500, Gamma: 2.6, Seed: 102},
	{Name: "LiveJournal", PaperNodes: 4_000_000, PaperEdges: 34_700_000, Nodes: 31_250, Edges: 271_093, Gamma: 2.5, Seed: 103},
	{Name: "Orkut", PaperNodes: 3_100_000, PaperEdges: 117_200_000, Nodes: 24_218, Edges: 915_625, Gamma: 2.3, Seed: 104},
	{Name: "Twitter", PaperNodes: 41_700_000, PaperEdges: 1_500_000_000, Nodes: 10_180, Edges: 366_210, Gamma: 2.1, Seed: 105},
	{Name: "Friendster", PaperNodes: 65_600_000, PaperEdges: 1_800_000_000, Nodes: 16_015, Edges: 439_453, Gamma: 2.4, Seed: 106},
}

var (
	datasetMu    sync.Mutex
	datasetCache = map[string]*Graph{}
)

// Dataset returns the spec for a named dataset of Table 1. Valid names are
// Web-St, DBLP, LiveJournal, Orkut, Twitter and Friendster.
func Dataset(name string) (DatasetSpec, error) {
	for _, d := range datasetTable {
		if d.Name == name {
			return d, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("graph: unknown dataset %q", name)
}

// DatasetNames returns the dataset names in Table 1 order.
func DatasetNames() []string {
	names := make([]string, len(datasetTable))
	for i, d := range datasetTable {
		names[i] = d.Name
	}
	return names
}

// Load generates (or returns the cached) replica graph for the spec.
func (d DatasetSpec) Load() *Graph {
	datasetMu.Lock()
	defer datasetMu.Unlock()
	if g, ok := datasetCache[d.Name]; ok {
		return g
	}
	// m is halved because the generator adds both arc directions.
	g := GenerateChungLu(d.Nodes, d.Edges/2, d.Gamma, d.Seed)
	datasetCache[d.Name] = g
	return g
}

// PrimeDataset installs g as the cached replica for the named dataset, so
// later Load calls return it instead of regenerating — the hook behind
// vcbench -graph-dir and the vcserve snapshot store, which load pregenerated
// graphgen binaries. The generator is deterministic, so a faithful dump has
// exactly the spec's vertex count — which differs across all six replicas,
// making it a cheap proof the file belongs to this dataset (file integrity
// itself is the binary format's CRC trailer's job). A mismatch is rejected
// rather than silently skewing every extrapolated statistic keyed to the
// replica size.
func PrimeDataset(name string, g *Graph) error {
	d, err := Dataset(name)
	if err != nil {
		return err
	}
	if g.NumVertices() != d.Nodes {
		return fmt.Errorf("graph: %s replica has %d vertices, want %d — not a graphgen dump of this dataset",
			name, g.NumVertices(), d.Nodes)
	}
	datasetMu.Lock()
	defer datasetMu.Unlock()
	datasetCache[d.Name] = g
	return nil
}

// PrimeDir primes the dataset cache from every <dataset>.bin graphgen dump
// in dir, returning the names of the datasets it primed, in file-name
// order. Files not named after a Table 1 dataset are ignored (the directory
// may hold other artifacts); a corrupt or mismatched file fails the whole
// call — callers must never proceed with a silently short set.
func PrimeDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".bin") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".bin")
		if _, err := Dataset(name); err != nil {
			continue
		}
		g, err := LoadBinaryFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return names, err
		}
		if err := PrimeDataset(name, g); err != nil {
			return names, err
		}
		names = append(names, name)
	}
	return names, nil
}

// MustLoad loads a dataset replica by name, panicking on unknown names;
// for use in examples and benchmarks where the name is a literal.
func MustLoad(name string) *Graph {
	d, err := Dataset(name)
	if err != nil {
		panic(err)
	}
	return d.Load()
}
