package ooc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
	msgs, _, err := readAll(r)
	if err != nil {
		t.Fatalf("ReadMessages: %v", err)
	}
	return msgs
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
			// Records name ascending vertices; the gaps reach 4-byte varints.
			r := edgeRec{v: recs[i].v + 1 + graph.VertexID(rng.Intn(1<<24))}
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
		_, got, err := readAll(r)
		if err != nil {
			t.Fatalf("ReadEdges: %v", err)
		}
		if len(got) != len(recs) {
			t.Fatalf("weighted=%v: %d records back, want %d", weighted, len(got), len(recs))
		}
		for i, want := range recs {
			v, nbrs, wts := got[i].v, got[i].nbrs, got[i].wts
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
		_, _, _, _, err := decodeAll(data, readBufLen)
		return err
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
	if err := drain(overflowingDegree()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overflowing degree: err=%v, want ErrCorrupt", err)
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
	var ib Inbox
	if err := r.ReadMessages(&ib, anyID); err == nil {
		t.Fatal("ReadMessages accepted on edge partition")
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

// TestCorruptionAcrossRefills flips every bit of an edge file and a message
// file that are larger than the read buffer, so the CRC spans refills and
// the trailer straddles the first one: a full decode must reject every flip
// with ErrCorrupt. The buffer is small so the flips stay cheap; the decoder
// treats every buffer size alike (TestRecordAcrossRefill).
func TestCorruptionAcrossRefills(t *testing.T) {
	const bufLen = 1 << 10
	for _, kind := range []byte{KindEdges, KindMessages} {
		// The trailer occupies [bufLen-4, bufLen+4).
		valid := sizedFile(t, kind, bufLen+4)
		if _, _, _, _, err := decodeAll(valid, bufLen); err != nil {
			t.Fatalf("kind %d: valid file rejected: %v", kind, err)
		}
		mut := append([]byte(nil), valid...)
		for off := range valid {
			for bit := 0; bit < 8; bit++ {
				mut[off] = valid[off] ^ 1<<bit
				if _, _, _, _, err := decodeAll(mut, bufLen); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("kind %d: flip of bit %d at %d: err=%v, want ErrCorrupt", kind, bit, off, err)
				}
			}
			mut[off] = valid[off]
		}
	}
}

// TestRecordAcrossRefill decodes files of each kind at every buffer size
// from the smallest decoding allows to the whole file, so a refill meets
// every byte of every record, length prefix and body alike, and records of
// one- and two-byte lengths with one- to three-byte IDs straddle it: each
// must decode exactly as with the whole file buffered.
func TestRecordAcrossRefill(t *testing.T) {
	files := map[string][]byte{}
	for _, weighted := range []bool{false, true} {
		var buf bytes.Buffer
		w := NewWriter(&buf, KindEdges, weighted)
		for v := graph.VertexID(0); v < 12; v++ {
			nbrs := make([]graph.VertexID, v*v%60) // up to 49: two-byte lengths
			var wts []float32
			for i := range nbrs {
				nbrs[i] = graph.VertexID(i*i*i) * v
				if weighted {
					wts = append(wts, float32(i)/3)
				}
			}
			if weighted && wts == nil {
				wts = []float32{}
			}
			w.AppendEdges(v*300, nbrs, wts)
		}
		w.Finish()
		files[fmt.Sprintf("edges weighted=%v", weighted)] = buf.Bytes()
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, KindMessages, false)
	for i := 0; i < 30; i++ {
		w.AppendMessage(graph.VertexID(i*i*i*40), bytes.Repeat([]byte{byte(i)}, i*i%150))
	}
	w.Finish()
	files["messages"] = buf.Bytes()
	for name, data := range files {
		_, _, msgs, edges, err := decodeAll(data, len(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := fmt.Sprint(msgs, edges)
		for bufLen := binary.MaxVarintLen64; bufLen < len(data); bufLen++ {
			_, _, msgs, edges, err := decodeAll(data, bufLen)
			if err != nil || fmt.Sprint(msgs, edges) != want {
				t.Fatalf("%s with a %d-byte buffer: err=%v, or the records differ", name, bufLen, err)
			}
		}
	}
}

// TestNeighborDecode decodes single-record edge files whose neighbors take
// one, two, three and five bytes, alone and mixed, against the inline
// one- and two-byte decode and its fallback: a non-canonical 0x80 0x00, a
// truncated varint, and a neighbor >= n as the record's last bytes must be
// ErrCorrupt, and a one-byte last neighbor, with nothing or a weight after
// it, must decode.
func TestNeighborDecode(t *testing.T) {
	weighted := func(nbr byte, weight uint32) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, KindEdges, true)
		w.AppendEdges(0, []graph.VertexID{graph.VertexID(nbr)}, []float32{math.Float32frombits(weight)})
		w.Finish()
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		file []byte
		n    uint64
		want []graph.VertexID // nil: ErrCorrupt
	}{
		{"one byte", rawFile(KindEdges, []byte{0, 2, 5, 7}), 8, []graph.VertexID{5, 7}},
		{"two bytes", rawFile(KindEdges, []byte{0, 2, 0xac, 0x02, 0xff, 0x7f}), anyID, []graph.VertexID{300, 16383}},
		{"three bytes", rawFile(KindEdges, []byte{0, 2, 0x80, 0x80, 0x01, 5}), anyID, []graph.VertexID{16384, 5}},
		{"five bytes", rawFile(KindEdges, []byte{0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}), anyID, []graph.VertexID{1<<32 - 1}},
		{"mixed", rawFile(KindEdges, []byte{0, 4, 0xff, 0xff, 0xff, 0xff, 0x0f, 9, 0x80, 0x80, 0x01, 0xac, 0x02}), anyID,
			[]graph.VertexID{1<<32 - 1, 9, 16384, 300}},
		{"one-byte tail", rawFile(KindEdges, []byte{0, 2, 0xac, 0x02, 9}), 301, []graph.VertexID{300, 9}},
		{"one-byte tail before a weight", weighted(9, 0x80), 10, []graph.VertexID{9}},
		{"one-byte tail before a zero weight", weighted(9, 0), 10, []graph.VertexID{9}},
		{"non-canonical last", rawFile(KindEdges, []byte{0, 1, 0x80, 0x00}), anyID, nil},
		{"non-canonical first", rawFile(KindEdges, []byte{0, 2, 0x80, 0x00, 5}), anyID, nil},
		{"truncated tail", rawFile(KindEdges, []byte{0, 2, 5, 0x85}), anyID, nil},
		{"two-byte neighbor >= n last", rawFile(KindEdges, []byte{0, 2, 5, 0xac, 0x02}), 300, nil},
		{"one-byte neighbor >= n last", rawFile(KindEdges, []byte{0, 2, 1, 7}), 7, nil},
		{"three-byte neighbor >= n last", rawFile(KindEdges, []byte{0, 2, 5, 0x80, 0x80, 0x01}), 16384, nil},
	} {
		for _, bufLen := range []int{binary.MaxVarintLen64, readBufLen} {
			var r Reader
			r.dec.Reset(nil, bufLen, ErrCorrupt) // init keeps this buffer
			err := r.init(bytes.NewReader(tc.file))
			var e EdgeList
			if err == nil {
				err = r.ReadEdges(&e, tc.n)
			}
			if tc.want == nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s (%d-byte buffer): err=%v, want ErrCorrupt", tc.name, bufLen, err)
				}
			} else if err != nil || !slices.Equal(e.Adj, tc.want) {
				t.Errorf("%s (%d-byte buffer): %v, %v; want %v", tc.name, bufLen, e.Adj, err, tc.want)
			}
		}
	}
}
