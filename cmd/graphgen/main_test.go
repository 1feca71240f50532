package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcmt/internal/graph"
)

// TestDatasetDumpRoundTrips writes a replica with -dataset -out, loads the
// file, and writes the loaded graph again: the bytes must not move.
func TestDatasetDumpRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "web.bin")
	var stdout strings.Builder
	if err := run([]string{"-dataset", "Web-St", "-out", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "wrote "+path) {
		t.Fatalf("stdout %q does not report the file", stdout.String())
	}
	dump, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := graph.WriteBinary(&again, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), dump) {
		t.Fatalf("the reloaded graph writes %d other bytes (the dump is %d)", again.Len(), len(dump))
	}
}

// TestEdgeListExport writes a Chung-Lu graph with -edgelist: the file holds
// one "from to" line per arc of the generated graph, in CSR order.
func TestEdgeListExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := run([]string{"-chunglu", "50,120,2.5", "-seed", "3", "-out", path, "-edgelist"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GenerateChungLu(50, 120, 2.5, 3)
	var want strings.Builder
	for v := range g.NumVertices() {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			fmt.Fprintf(&want, "%d %d\n", v, u)
		}
	}
	if g.NumEdges() == 0 || string(data) != want.String() {
		t.Fatalf("-edgelist wrote %q, want the %d arcs %q", data, g.NumEdges(), want.String())
	}
}

func TestBadChungLuSpecIsAnError(t *testing.T) {
	for _, spec := range []string{"100,400", "x,400,2.5", "100,y,2.5", "100,400,z"} {
		if err := run([]string{"-chunglu", spec}, io.Discard); err == nil {
			t.Errorf("-chunglu %q: no error", spec)
		}
	}
}

func TestNoSourceIsAnError(t *testing.T) {
	if err := run([]string{"-stats"}, io.Discard); err == nil {
		t.Fatal("no -list, -dataset or -chunglu: no error")
	}
}
