package difftest

import (
	"os"
	"path/filepath"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// writeDump writes g's binary dump to a temp file and loads it back through
// the production disk loader (the mmap path on unix), so the comparison
// below covers the exact bytes-to-engine pipeline vcrun -graph-file uses.
func writeDump(t *testing.T, dir string, g *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(dir, "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestBinaryFormatReportIdentity is the partition-stability contract of
// the binary format: the in-memory graph and its dump reloaded from disk
// must drive the engine to byte-identical run reports — same rounds,
// messages, partition assignment, per-machine aggregates and cost-model
// output — across the worker grid. Vertex order is positional in CSR, so
// any loader that broke the dump's recorded order would shift
// HashPartition ownership and diverge here.
func TestBinaryFormatReportIdentity(t *testing.T) {
	g := graph.GenerateChungLu(nVertices, nEdges, 2.5, seeds[0])
	loaded := writeDump(t, t.TempDir(), g)

	part := graph.HashPartition(nVertices, nMachines)
	sources := []graph.VertexID{5, 77, 222}
	for _, w := range workerGrid {
		report := func(gg *graph.Graph) []byte {
			rep := combineReport(t, "MSSP", func(run *sim.Run) (int, error) {
				job, err := tasks.NewMSSP(gg, part, tasks.MSSPConfig{
					Sources: sources, Seed: seeds[0], Workers: w,
				})
				if err != nil {
					return 0, err
				}
				_, err = job.RunBatch(run, len(sources), 0)
				return len(sources), err
			})
			return reportJSON(t, "MSSP", rep)
		}
		requireSameReport(t, "in-memory-vs-reloaded-dump", report(g), report(loaded))
	}
}
