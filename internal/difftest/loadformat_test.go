package difftest

import (
	"os"
	"path/filepath"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// writeDump writes one encoding of g to a temp file and loads it back
// through the production disk loader (which takes the mmap path for v3 on
// unix), so the comparison below covers the exact bytes-to-engine pipeline
// vcrun -graph-file uses.
func writeDump(t *testing.T, dir, name string, g *graph.Graph, write func(f *os.File, g *graph.Graph) error) *graph.Graph {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f, g); err != nil {
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

// TestBinaryFormatReportIdentity is the migration contract for the v3
// bulk-load format: a legacy v2 dump and its v3 rewrite must drive the
// engine to byte-identical run reports — same rounds, messages, partition
// assignment, per-machine aggregates and cost-model output — across the
// worker grid. Vertex order is positional in CSR, so any loader that broke
// the dump's recorded order would shift HashPartition ownership and
// diverge here.
func TestBinaryFormatReportIdentity(t *testing.T) {
	g := graph.GenerateChungLu(nVertices, nEdges, 2.5, seeds[0])
	dir := t.TempDir()

	fromV2 := writeDump(t, dir, "g.v2.bin", g, func(f *os.File, g *graph.Graph) error {
		return graph.WriteBinaryV2(f, g)
	})
	// The rewrite path a migration would take: load the v2 dump, write it
	// back as v3, load that.
	fromV3 := writeDump(t, dir, "g.v3.bin", fromV2, func(f *os.File, g *graph.Graph) error {
		return graph.WriteBinary(f, g)
	})

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
		requireSameReport(t, "v2-dump-vs-v3-rewrite", report(fromV2), report(fromV3))
	}
}
