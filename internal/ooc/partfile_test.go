package ooc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vcmt/internal/graph"
)

type msgRec struct {
	dst     graph.VertexID
	payload []byte
}

type edgeRec struct {
	v    graph.VertexID
	nbrs []graph.VertexID
	wts  []float32
}

func writeMessages(t *testing.T, path string, recs []msgRec) int64 {
	t.Helper()
	w, err := Create(path, KindMessages, false)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, r := range recs {
		if err := w.AppendMessage(r.dst, r.payload); err != nil {
			t.Fatalf("AppendMessage: %v", err)
		}
	}
	n, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return n
}

func readMessages(t *testing.T, path string) []msgRec {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	var out []msgRec
	for {
		dst, payload, err := r.NextMessage()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("NextMessage: %v", err)
		}
		out = append(out, msgRec{dst, append([]byte(nil), payload...)})
	}
}

// TestMessageRoundTrip drives random message partitions through the codec:
// every record must come back in order, bit-for-bit, and the reported size
// must match the file.
func TestMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var recs []msgRec
		for i := 0; i < rng.Intn(200); i++ {
			p := make([]byte, rng.Intn(40))
			rng.Read(p)
			recs = append(recs, msgRec{graph.VertexID(rng.Uint32()), p})
		}
		path := filepath.Join(t.TempDir(), "m.vp")
		n := writeMessages(t, path, recs)
		fi, err := os.Stat(path)
		if err != nil || fi.Size() != n {
			t.Fatalf("Finish reported %d bytes, file has %d (%v)", n, fi.Size(), err)
		}
		got := readMessages(t, path)
		if len(got) != len(recs) {
			t.Fatalf("trial %d: %d records back, want %d", trial, len(got), len(recs))
		}
		for i := range recs {
			if got[i].dst != recs[i].dst || !bytes.Equal(got[i].payload, recs[i].payload) {
				t.Fatalf("trial %d: record %d mismatch", trial, i)
			}
		}
	}
}

// TestEdgeRoundTrip covers weighted and unweighted edge partitions,
// including empty adjacency lists.
func TestEdgeRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		recs := []edgeRec{{v: 3}} // zero-degree vertex
		for i := 0; i < 100; i++ {
			deg := rng.Intn(20)
			r := edgeRec{v: graph.VertexID(rng.Uint32())}
			for j := 0; j < deg; j++ {
				r.nbrs = append(r.nbrs, graph.VertexID(rng.Uint32()))
				if weighted {
					r.wts = append(r.wts, rng.Float32())
				}
			}
			recs = append(recs, r)
		}
		path := filepath.Join(t.TempDir(), "e.vp")
		w, err := Create(path, KindEdges, weighted)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		for _, r := range recs {
			wts := r.wts
			if weighted && wts == nil {
				wts = []float32{}
			}
			if err := w.AppendEdges(r.v, r.nbrs, wts); err != nil {
				t.Fatalf("AppendEdges: %v", err)
			}
		}
		if _, err := w.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if r.Kind() != KindEdges || r.Weighted() != weighted {
			t.Fatalf("header kind=%d weighted=%v", r.Kind(), r.Weighted())
		}
		for i := 0; ; i++ {
			v, nbrs, wts, err := r.NextEdges()
			if err == io.EOF {
				if i != len(recs) {
					t.Fatalf("weighted=%v: %d records back, want %d", weighted, i, len(recs))
				}
				break
			}
			if err != nil {
				t.Fatalf("NextEdges: %v", err)
			}
			want := recs[i]
			if v != want.v || len(nbrs) != len(want.nbrs) {
				t.Fatalf("record %d: v=%d deg=%d, want v=%d deg=%d", i, v, len(nbrs), want.v, len(want.nbrs))
			}
			for j := range nbrs {
				if nbrs[j] != want.nbrs[j] {
					t.Fatalf("record %d neighbor %d: %d != %d", i, j, nbrs[j], want.nbrs[j])
				}
				if weighted && wts[j] != want.wts[j] {
					t.Fatalf("record %d weight %d: %v != %v", i, j, wts[j], want.wts[j])
				}
			}
			if !weighted && wts != nil {
				t.Fatalf("unweighted partition returned weights")
			}
		}
		r.Close()
	}
}

// TestCorruptionMatrix flips, truncates and extends an otherwise valid file
// at every offset: the reader must reject each mutation with ErrCorrupt and
// never panic.
func TestCorruptionMatrix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.vp")
	writeMessages(t, path, []msgRec{
		{1, []byte("alpha")}, {70000, []byte{}}, {2, []byte("bb")},
	})
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	drain := func(data []byte) error {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		for {
			if _, _, err := r.NextMessage(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}
	if err := drain(valid); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if err := drain(valid[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err=%v, want ErrCorrupt", cut, err)
		}
	}
	for off := 0; off < len(valid); off++ {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x40
		if err := drain(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err=%v, want ErrCorrupt", off, err)
		}
	}
	if err := drain(append(append([]byte(nil), valid...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte accepted")
	}
}

// TestVersionRejected checks that an unsupported version byte surfaces the
// typed ErrVersion (which also satisfies errors.Is(err, ErrCorrupt)).
func TestVersionRejected(t *testing.T) {
	data := []byte{partMagic0, partMagic1, 99, KindMessages, 0}
	_, err := NewReader(bytes.NewReader(data))
	if !errors.Is(err, ErrVersion) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want ErrVersion wrapping ErrCorrupt", err)
	}
}

// TestAbortRemovesFile checks Abort deletes a half-written partition.
func TestAbortRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.vp")
	w, err := Create(path, KindMessages, false)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendMessage(1, []byte("y"))
	w.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file still exists after Abort: %v", err)
	}
}

// TestKindMismatch checks the typed-append and typed-read guards.
func TestKindMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.vp")
	w, err := Create(path, KindEdges, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendMessage(1, nil); err == nil {
		t.Fatal("AppendMessage accepted on edge partition")
	}
	w.AppendEdges(0, []graph.VertexID{1}, nil)
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.NextMessage(); err == nil {
		t.Fatal("NextMessage accepted on edge partition")
	}
}
