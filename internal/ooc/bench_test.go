package ooc

import (
	"fmt"
	"path/filepath"
	"testing"

	"vcmt/internal/graph"
)

// BenchmarkPartitionWrite measures streaming a message partition to disk
// through the framed codec (the Route hot path plus the barrier flush) on a
// warm writer, as the runner reuses its spares.
func BenchmarkPartitionWrite(b *testing.B) {
	dir := b.TempDir()
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	const msgs = 20000
	var w Writer
	write := func(i int) {
		if err := w.create(filepath.Join(dir, fmt.Sprintf("b%03d.vp", i%8)), KindMessages, false); err != nil {
			b.Fatal(err)
		}
		for m := 0; m < msgs; m++ {
			if err := w.AppendMessage(graph.VertexID(m%4096), payload); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	write(0)
	b.SetBytes(int64(msgs * len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
}

// BenchmarkPartitionRead measures decoding a message partition whole
// through the verifying decoder into an inbox (the ReadInbox hot path) on
// a warm reader and inbox, as the runner reuses its own.
func BenchmarkPartitionRead(b *testing.B) {
	path := filepath.Join(b.TempDir(), "r.vp")
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	const msgs = 20000
	w := new(Writer)
	if err := w.create(path, KindMessages, false); err != nil {
		b.Fatal(err)
	}
	for m := 0; m < msgs; m++ {
		w.AppendMessage(graph.VertexID(m%4096), payload)
	}
	if _, err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	var r Reader
	var ib Inbox
	read := func() {
		if err := r.open(path); err != nil {
			b.Fatal(err)
		}
		err := r.ReadMessages(&ib, 4096)
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
		if ib.Len() != msgs {
			b.Fatalf("decoded %d messages, want %d", ib.Len(), msgs)
		}
	}
	read()
	b.SetBytes(r.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// BenchmarkRunnerSuperstep measures one out-of-core superstep on a warm,
// reused runner: route 20000 messages, seal them at the barrier, then
// stream both partitions' edge windows and inboxes back. Buffers come from
// the runner, so the only allocations are the file system calls' own.
func BenchmarkRunnerSuperstep(b *testing.B) {
	g := testGraph(b, 4096, false)
	r, err := NewRunner(g, identityOrder(4096), Config{Dir: b.TempDir(), Partitions: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var ib Inbox
	superstep(b, r, &ib, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		superstep(b, r, &ib, 20000)
	}
}

// BenchmarkWindow measures Window on the DBLP replica as one partition (the
// out-of-core benchmark's configuration) with every vertex computing: open,
// decode and verify the whole edge file, then rebuild the full-width CSR
// view.
func BenchmarkWindow(b *testing.B) { benchWindow(b, 1) }

// BenchmarkWindowSparse is BenchmarkWindow with every fourth vertex
// computing, about the share of a superstep of the out-of-core benchmark:
// the whole file is still read and verified, but only those vertices'
// neighbors are decoded.
func BenchmarkWindowSparse(b *testing.B) { benchWindow(b, 4) }

// benchWindow times Window over DBLP as one partition with every stride-th
// vertex computing.
func benchWindow(b *testing.B, stride int) {
	spec, err := graph.Dataset("DBLP")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Load()
	r, err := NewRunner(g, identityOrder(g.NumVertices()), Config{Dir: b.TempDir(), Partitions: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var dsts []graph.VertexID
	for v := 0; v < g.NumVertices(); v += stride {
		dsts = append(dsts, graph.VertexID(v))
	}
	_, nb, err := r.Window(0, dsts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(nb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Window(0, dsts); err != nil {
			b.Fatal(err)
		}
	}
}
