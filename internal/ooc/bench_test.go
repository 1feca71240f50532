package ooc

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"vcmt/internal/graph"
)

// BenchmarkPartitionWrite measures streaming a message partition to disk
// through the framed codec (the Route hot path plus the barrier flush).
func BenchmarkPartitionWrite(b *testing.B) {
	dir := b.TempDir()
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	const msgs = 20000
	b.SetBytes(int64(msgs * len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("b%03d.vp", i%8))
		w, err := Create(path, KindMessages, false)
		if err != nil {
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
}

// BenchmarkPartitionRead measures streaming a message partition back
// through the verifying decoder (the ReadInbox hot path).
func BenchmarkPartitionRead(b *testing.B) {
	path := filepath.Join(b.TempDir(), "r.vp")
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	const msgs = 20000
	w, err := Create(path, KindMessages, false)
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < msgs; m++ {
		w.AppendMessage(graph.VertexID(m%4096), payload)
	}
	if _, err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, _, err := r.NextMessage()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		r.Close()
		if n != msgs {
			b.Fatalf("decoded %d messages, want %d", n, msgs)
		}
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
