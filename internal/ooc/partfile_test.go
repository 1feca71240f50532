package ooc

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
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

// TestFormatBytesPinned pins the exact bytes Create writes for a small
// message file and a small weighted edge file: any change to the framing,
// the varints or the CRC trailer moves a digest.
func TestFormatBytesPinned(t *testing.T) {
	dir := t.TempDir()
	msgs := filepath.Join(dir, "m.vp")
	writeMessages(t, msgs, []msgRec{{1, []byte("alpha")}, {300, nil}, {1 << 31, []byte{0xff, 0x00}}})
	edges := filepath.Join(dir, "e.vp")
	ew, err := Create(edges, KindEdges, true)
	if err != nil {
		t.Fatal(err)
	}
	ew.AppendEdges(0, []graph.VertexID{1, 200, 70000}, []float32{0.5, 1, -2})
	ew.AppendEdges(7, nil, []float32{})
	if _, err := ew.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		path string
		size int
		sha  string
	}{
		{msgs, 33, "5456406443e14c8feb3cd8eae14675a4a9eab0d22b4e56f7e2aaa3cf59759cf2"},
		{edges, 39, "e470a193d991655b5b759ba980a6b94d051afb2553f57648f07ab77d8469223f"},
	} {
		data, err := os.ReadFile(pin.path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != pin.size || sum != pin.sha {
			t.Fatalf("%s is %d bytes, sha256 %s; pinned %d, %s", filepath.Base(pin.path), len(data), sum, pin.size, pin.sha)
		}
	}
}

// sizedFile encodes a partition of kind that is exactly size bytes long:
// filler records, then one last record padded to land on size.
func sizedFile(t *testing.T, kind byte, size int) []byte {
	t.Helper()
	for pad := 0; pad < 100; pad++ {
		var buf bytes.Buffer
		w := NewWriter(&buf, kind, false)
		add := func(v graph.VertexID, n int) {
			if kind == KindMessages {
				w.AppendMessage(v*977, bytes.Repeat([]byte{byte(v)}, n))
				return
			}
			nbrs := make([]graph.VertexID, n)
			for i := range nbrs {
				nbrs[i] = graph.VertexID(i*31) % 128
			}
			w.AppendEdges(v, nbrs, nil)
		}
		v := graph.VertexID(0)
		for ; w.Bytes() < int64(size-100); v++ {
			add(v, 20+int(v)%30)
		}
		add(v, pad)
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == size {
			return buf.Bytes()
		}
	}
	t.Fatalf("no kind-%d file of exactly %d bytes", kind, size)
	return nil
}

// drainFile opens path through the reader the runner uses and decodes every
// record, returning the first error other than io.EOF.
func drainFile(path string) error {
	r, err := Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		if r.Kind() == KindMessages {
			_, _, err = r.NextMessage()
		} else {
			_, _, _, err = r.NextEdges()
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// TestCorruptionAcrossRefills flips every bit of an edge file and a message
// file that are larger than the read buffer, so the CRC spans refills and
// the trailer straddles the first one: Open plus a full decode must reject
// every flip with ErrCorrupt.
func TestCorruptionAcrossRefills(t *testing.T) {
	for _, kind := range []byte{KindEdges, KindMessages} {
		// The trailer occupies [readBufLen-4, readBufLen+4).
		valid := sizedFile(t, kind, readBufLen+4)
		path := filepath.Join(t.TempDir(), "c.vp")
		if err := os.WriteFile(path, valid, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := drainFile(path); err != nil {
			t.Fatalf("kind %d: valid file rejected: %v", kind, err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		for off := range valid {
			for bit := 0; bit < 8; bit++ {
				if _, err := f.WriteAt([]byte{valid[off] ^ 1<<bit}, int64(off)); err != nil {
					t.Fatal(err)
				}
				if err := drainFile(path); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("kind %d: flip of bit %d at %d: err=%v, want ErrCorrupt", kind, bit, off, err)
				}
			}
			if _, err := f.WriteAt(valid[off:off+1], int64(off)); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
	}
}
