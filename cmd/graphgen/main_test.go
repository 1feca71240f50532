package main

import (
	"bytes"
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
