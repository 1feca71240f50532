package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// BenchmarkLoadBinaryV3 feeds the BENCH_graph.json regression gate (make
// bench-graph): the bulk zero-copy load of a mid-size weighted replica, so
// the gate catches both load-time and allocs/op regressions. The retired
// v2 reflection decode it replaced took 24 684 706 ns/op on the same graph
// (cmd/benchjson keeps that number). BenchmarkLoadBinaryFileV3 (disk +
// mmap) stays out of the gate: it measures the host's filesystem, not the
// decoder.

var (
	loadBenchOnce sync.Once
	loadBenchV3   []byte
)

// loadBenchData encodes one weighted mid-size replica (comparable to the
// LiveJournal replica's arc count).
func loadBenchData(b *testing.B) []byte {
	loadBenchOnce.Do(func() {
		g := WithUniformWeights(GenerateChungLu(50_000, 400_000, 2.3, 77), 1, 4, 9)
		var b3 bytes.Buffer
		if err := WriteBinary(&b3, g); err != nil {
			panic(err)
		}
		loadBenchV3 = b3.Bytes()
	})
	return loadBenchV3
}

func BenchmarkLoadBinaryV3(b *testing.B) {
	data := loadBenchData(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadBinaryFileV3 goes through LoadBinaryFile — the mmap fast
// path on unix — against a real (page-cached) file. Artifact only, not
// gated: wall clock here belongs to the host filesystem.
func BenchmarkLoadBinaryFileV3(b *testing.B) {
	data := loadBenchData(b)
	path := filepath.Join(b.TempDir(), "bench.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadBinaryFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
