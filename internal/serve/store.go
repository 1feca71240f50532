package serve

import (
	"fmt"
	"sort"
	"sync"

	"vcmt/internal/graph"
)

// Snapshot is one named, immutable in-memory graph the service serves jobs
// against. Snapshots are loaded once — from a pregenerated graphgen binary
// file or by running the deterministic generator — and shared read-only by
// every concurrent job, the iPregel argument for multi-task coexistence:
// one resident copy of the graph, many tasks over it.
type Snapshot struct {
	Name   string
	Spec   graph.DatasetSpec
	Graph  *graph.Graph
	Source string // "generated" or "file"

	partOnce sync.Once
	part     *graph.Partition
}

// Partition returns the snapshot's hash partition for the given machine
// count, computed once and shared by every job (all jobs run on the same
// simulated cluster, so the machine count never varies per snapshot).
func (s *Snapshot) Partition(machines int) *graph.Partition {
	s.partOnce.Do(func() {
		s.part = graph.HashPartition(s.Graph.NumVertices(), machines)
	})
	return s.part
}

// SnapshotInfo is the JSON view of a snapshot for GET /v1/graphs.
type SnapshotInfo struct {
	Name       string `json:"name"`
	Source     string `json:"source"`
	Vertices   int    `json:"vertices"`
	Arcs       int64  `json:"arcs"`
	Weighted   bool   `json:"weighted"`
	PaperNodes int64  `json:"paper_nodes"`
	PaperArcs  int64  `json:"paper_arcs"`
}

// Store holds the named snapshots. Lookups that miss fall back to
// generating the dataset replica on demand, so a cold server still serves
// any Table 1 dataset.
type Store struct {
	mu    sync.Mutex
	snaps map[string]*Snapshot
}

// NewStore returns an empty snapshot store.
func NewStore() *Store {
	return &Store{snaps: make(map[string]*Snapshot)}
}

// AddGenerated generates (or takes from the process-wide cache) the named
// dataset replica and installs it as a snapshot.
func (s *Store) AddGenerated(name string) error {
	d, err := graph.Dataset(name)
	if err != nil {
		return err
	}
	g := d.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snaps[d.Name] = &Snapshot{Name: d.Name, Spec: d, Graph: g, Source: "generated"}
	return nil
}

// LoadDir installs a "file" snapshot for every <dataset>.bin graphgen dump
// in dir (see graph.PrimeDir), returning how many it installed. Dumps
// arrive through the zero-copy bulk/mmap path, which suits snapshots well:
// they are immutable for the process lifetime, exactly what a shared
// read-only mapping provides. Files not named after a Table 1 dataset are
// ignored; a corrupt file, or a dump of another dataset (every statistic is
// extrapolated from the replica size, so the vertex count must match),
// fails the whole load and installs nothing — a service must not come up
// with a silently short snapshot set.
func (s *Store) LoadDir(dir string) (int, error) {
	names, err := graph.PrimeDir(dir)
	if err != nil {
		return 0, fmt.Errorf("serve: loading %s: %w", dir, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		d, _ := graph.Dataset(name) // PrimeDir names only Table 1 datasets
		s.snaps[d.Name] = &Snapshot{Name: d.Name, Spec: d, Graph: d.Load(), Source: "file"}
	}
	return len(names), nil
}

// Get returns the named snapshot, generating the dataset replica on demand
// when it is not resident yet.
func (s *Store) Get(name string) (*Snapshot, error) {
	s.mu.Lock()
	snap, ok := s.snaps[name]
	s.mu.Unlock()
	if ok {
		return snap, nil
	}
	if err := s.AddGenerated(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snaps[name], nil
}

// List returns the resident snapshots sorted by name.
func (s *Store) List() []SnapshotInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SnapshotInfo, 0, len(s.snaps))
	for _, snap := range s.snaps {
		out = append(out, SnapshotInfo{
			Name:       snap.Name,
			Source:     snap.Source,
			Vertices:   snap.Graph.NumVertices(),
			Arcs:       snap.Graph.NumEdges(),
			Weighted:   snap.Graph.Weighted(),
			PaperNodes: snap.Spec.PaperNodes,
			PaperArcs:  snap.Spec.PaperEdges,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
