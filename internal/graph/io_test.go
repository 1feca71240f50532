package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// encodeVersion returns the named encoding of g: 3 is the format, 2 the
// retired one (see legacyDump), which every loader must reject. The
// section bytes are identical, so every corruption coordinate below is
// valid for both.
func encodeVersion(t *testing.T, g *Graph, version uint64) []byte {
	t.Helper()
	if version != binaryVersion {
		return legacyDump(g, version)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamOnly hides the io.Seeker of an underlying reader, forcing
// ReadBinary onto the unknown-size (incrementally accumulated) path.
type streamOnly struct{ io.Reader }

// readers returns both loader entry modes for the same bytes: the sized
// (seeker) path and the unknown-size stream path. Every rejection test
// runs under both, because they take different guard branches.
func readers(data []byte) map[string]func() io.Reader {
	return map[string]func() io.Reader{
		"sized":  func() io.Reader { return bytes.NewReader(data) },
		"stream": func() io.Reader { return streamOnly{bytes.NewReader(data)} },
	}
}

// TestBinaryCorruptionMatrix damages a valid file in every region —
// header, offsets, adjacency, weights, checksum trailer — plus truncation
// at every interesting boundary, through both the sized and unknown-size
// loader paths. Every mutant must be rejected with ErrCorrupt: a corrupt
// file must never load silently, partially, or with a panic. The v2 rows
// run the same mutants over a retired v2 dump, which is rejected intact
// ("unsupported version 2") and so must stay rejected however it is
// damaged.
func TestBinaryCorruptionMatrix(t *testing.T) {
	g := WithUniformWeights(GenerateChungLu(50, 200, 2.3, 9), 1, 3, 8)
	for _, version := range []uint64{2, binaryVersion} {
		valid := encodeVersion(t, g, version)
		vname := map[uint64]string{2: "v2", 3: "v3"}[version]
		for mode, mk := range readers(valid) {
			_, err := ReadBinary(mk())
			switch {
			case version == binaryVersion && err != nil:
				t.Fatalf("%s: valid file rejected on the %s path: %v", vname, mode, err)
			case version != binaryVersion && (!errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 2")):
				t.Fatalf("%s: retired format on the %s path: got %v, want ErrCorrupt unsupported version 2", vname, mode, err)
			}
		}

		// Region boundaries of the weighted encoding (identical across versions).
		const header = binaryHeaderBytes
		offsetsEnd := header + (g.NumVertices()+1)*8
		adjEnd := offsetsEnd + int(g.NumEdges())*4
		weightsEnd := adjEnd + int(g.NumEdges())*4

		reject := func(name string, data []byte) {
			for mode, mk := range readers(data) {
				t.Run(vname+"/"+name+"/"+mode, func(t *testing.T) {
					got, err := ReadBinary(mk())
					if err == nil {
						t.Fatalf("corrupt input loaded silently: %d vertices", got.NumVertices())
					}
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("got %v, want ErrCorrupt", err)
					}
				})
			}
		}
		flip := func(name string, pos int) {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 0x40
			reject("flip/"+name, mut)
		}
		flip("magic", 0)
		flip("version", 8)
		flip("vertex-count", 16)
		flip("arc-count", 24)
		flip("flags", 32)
		flip("offsets", header+8)
		flip("adj", offsetsEnd+2)
		flip("weights", adjEnd+1)
		flip("trailer", weightsEnd+3)

		for _, cut := range []struct {
			name string
			n    int
		}{
			{"empty", 0},
			{"mid-header", header / 2},
			{"header-only", header},
			{"mid-offsets", header + 24},
			{"mid-adj", offsetsEnd + 6},
			{"mid-weights", adjEnd + 2},
			{"missing-trailer", weightsEnd},
			{"half-trailer", weightsEnd + 4},
		} {
			reject("truncate/"+cut.name, valid[:cut.n])
		}

		wrongVer := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(wrongVer[8:], 7)
		reject("wrong-version", wrongVer)

		reject("trailing-garbage", append(append([]byte(nil), valid...), 0xEE))

		// A header claiming enormous sections on a tiny file: the sized
		// path must reject it from the size mismatch alone, the stream
		// path from the body falling short — in both cases before any
		// header-sized allocation (see TestForgedHeaderAllocationBounded).
		huge := forgedHugeHeader(version)
		reject("forged-huge-header", huge)
	}
}

// forgedHugeHeader builds a 100-byte input whose valid-looking header
// claims the loader-limit maximum: 2^28 vertices and 64*2^28 arcs, which
// the pre-hardening loader would have answered with ~80 GiB of upfront
// allocation.
func forgedHugeHeader(version uint64) []byte {
	data := make([]byte, 100)
	for i, v := range []uint64{binaryMagic, version, maxLoadVertices, 64 * maxLoadVertices, 1} {
		binary.LittleEndian.PutUint64(data[8*i:], v)
	}
	return data
}

// TestForgedHeaderAllocationBounded is the regression test for the
// header-driven OOM: rejecting a 100-byte file whose header claims ~80 GiB
// of sections must not allocate more than a spare megabyte, on either
// loader path.
func TestForgedHeaderAllocationBounded(t *testing.T) {
	data := forgedHugeHeader(binaryVersion)
	for mode, mk := range readers(data) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(mk())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", mode, err)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
			t.Fatalf("%s: rejecting a forged 100-byte file allocated %d bytes", mode, delta)
		}
	}
}

// TestBinaryForgedStructure re-checksums files whose bytes are internally
// consistent but structurally invalid: the CRC passes, so only the CSR
// validation stands between them and a silent mis-load. The v2 forgeries
// are stopped earlier, at the retired version word.
func TestBinaryForgedStructure(t *testing.T) {
	g := GenerateRing(10)
	for _, version := range []uint64{2, binaryVersion} {
		forge := func(name string, mutate func([]byte)) {
			t.Run(name, func(t *testing.T) {
				data := encodeVersion(t, g, version)
				body := data[:len(data)-8]
				mutate(body)
				mut := append(append([]byte(nil), body...), 0, 0, 0, 0, 0, 0, 0, 0)
				binary.LittleEndian.PutUint64(mut[len(body):], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
				for mode, mk := range readers(mut) {
					if _, err := ReadBinary(mk()); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("forged %s (%s): got %v, want ErrCorrupt", name, mode, err)
					}
				}
			})
		}
		const header = binaryHeaderBytes
		vname := map[uint64]string{2: "v2/", 3: "v3/"}[version]
		forge(vname+"decreasing-offsets", func(b []byte) {
			binary.LittleEndian.PutUint64(b[header+8:], 1<<20)
		})
		forge(vname+"neighbor-out-of-range", func(b []byte) {
			offsetsEnd := header + (g.NumVertices()+1)*8
			binary.LittleEndian.PutUint32(b[offsetsEnd:], 99)
		})
	}
}

// assertGraphsByteIdentical requires b to hold the exact CSR arrays of a —
// not just the same adjacency structure but bitwise-equal offsets, adj and
// weights slices, the property the zero-copy load path guarantees and the
// engine's owner/rank partition stability depends on.
func assertGraphsByteIdentical(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.n != b.n {
		t.Fatalf("vertex count %d vs %d", a.n, b.n)
	}
	if len(a.offsets) != len(b.offsets) {
		t.Fatalf("offsets length %d vs %d", len(a.offsets), len(b.offsets))
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			t.Fatalf("offsets[%d]: %d vs %d", i, a.offsets[i], b.offsets[i])
		}
	}
	if len(a.adj) != len(b.adj) {
		t.Fatalf("adj length %d vs %d", len(a.adj), len(b.adj))
	}
	for i := range a.adj {
		if a.adj[i] != b.adj[i] {
			t.Fatalf("adj[%d]: %d vs %d", i, a.adj[i], b.adj[i])
		}
	}
	if (a.weights == nil) != (b.weights == nil) || len(a.weights) != len(b.weights) {
		t.Fatalf("weights shape mismatch: %d vs %d", len(a.weights), len(b.weights))
	}
	for i := range a.weights {
		if a.weights[i] != b.weights[i] {
			t.Fatalf("weights[%d]: %v vs %v", i, a.weights[i], b.weights[i])
		}
	}
}

// TestBinaryV3RoundTripDatasets round-trips all six paper dataset replicas
// through the v3 bulk format and requires the loaded CSR arrays to be
// byte-identical to the Builder-constructed graph — the partition-stability
// invariant at full dataset scale.
func TestBinaryV3RoundTripDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all six replicas")
	}
	for _, name := range DatasetNames() {
		g := MustLoad(name)
		data := encodeVersion(t, g, binaryVersion)
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertGraphsByteIdentical(t, g, got)
	}
}

// TestBinaryRoundTripProperty is the randomized round-trip property: for
// arbitrary generated graphs (weighted and not), a dump reloads
// byte-identically on both loader paths.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64, weighted bool) bool {
		g := GenerateUniform(40+int(seed%100), 150+int64(seed%400), seed)
		if weighted {
			g = WithUniformWeights(g, 1, 9, seed)
		}
		v3 := encodeVersion(t, g, binaryVersion)
		sized, err := ReadBinary(bytes.NewReader(v3))
		if err != nil {
			return false
		}
		assertGraphsByteIdentical(t, g, sized)
		streamed, err := ReadBinary(streamOnly{bytes.NewReader(v3)})
		if err != nil {
			return false
		}
		assertGraphsByteIdentical(t, g, streamed)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryFuzzCorpusRoundTrip replays the shared fuzz seed corpus
// through all three loader entry points (sized, stream, in-memory image)
// and requires them to agree: same accept/reject verdict, and for accepted
// inputs the same graph, which must then round-trip through v3
// byte-identically.
func TestBinaryFuzzCorpusRoundTrip(t *testing.T) {
	for i, seed := range fuzzBinarySeeds() {
		img := append([]byte(nil), seed...)
		// parseBinaryImage requires 8-byte alignment, like a mapping.
		aligned := alignedBytes(int64(len(img)))
		copy(aligned, img)

		sized, errSized := ReadBinary(bytes.NewReader(seed))
		streamed, errStream := ReadBinary(streamOnly{bytes.NewReader(seed)})
		var imaged *Graph
		var errImage error
		if len(aligned) > 0 {
			imaged, errImage = parseBinaryImage(aligned)
		} else {
			imaged, errImage = parseBinaryImage(nil)
		}
		if (errSized == nil) != (errStream == nil) || (errSized == nil) != (errImage == nil) {
			t.Fatalf("seed %d: loader verdicts disagree: sized=%v stream=%v image=%v",
				i, errSized, errStream, errImage)
		}
		if errSized != nil {
			continue
		}
		assertGraphsByteIdentical(t, sized, streamed)
		assertGraphsByteIdentical(t, sized, imaged)
		reencoded := encodeVersion(t, sized, binaryVersion)
		again, err := ReadBinary(bytes.NewReader(reencoded))
		if err != nil {
			t.Fatalf("seed %d: re-encode failed to load: %v", i, err)
		}
		assertGraphsByteIdentical(t, sized, again)
	}
}

// TestLoadBinaryFile exercises the disk loader (the mmap fast path on
// unix): a dump loads byte-identically, and a corrupt dump and a retired
// v2 dump are rejected with ErrCorrupt through the path wrapping.
func TestLoadBinaryFile(t *testing.T) {
	g := GenerateChungLu(80, 400, 2.4, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	data := encodeVersion(t, g, binaryVersion)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsByteIdentical(t, g, g2)

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01
	for name, content := range map[string][]byte{"corrupt": corrupt, "v2": encodeVersion(t, g, 2)} {
		bad := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(bad, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBinaryFile(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s file on disk: got %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := LoadBinaryFile(filepath.Join(dir, "absent.bin")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestMmapBinaryFile pins the mmap fast path directly: a v3 file loads
// byte-identically through it, and a v2 file and a corrupt v3 file are
// rejected with ErrCorrupt (and unmapped).
func TestMmapBinaryFile(t *testing.T) {
	g := WithUniformWeights(GenerateChungLu(60, 300, 2.4, 5), 1, 2, 6)
	dir := t.TempDir()
	v3 := filepath.Join(dir, "v3.bin")
	if err := os.WriteFile(v3, encodeVersion(t, g, binaryVersion), 0o644); err != nil {
		t.Fatal(err)
	}
	got, handled, err := mmapBinaryFile(v3)
	if !handled {
		t.Skip("mmap loader not available on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsByteIdentical(t, g, got)

	v2 := filepath.Join(dir, "v2.bin")
	if err := os.WriteFile(v2, encodeVersion(t, g, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, handled, err := mmapBinaryFile(v2); !handled || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v2 file: handled=%v err=%v, want handled ErrCorrupt", handled, err)
	}

	data, err := os.ReadFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x20
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, handled, err := mmapBinaryFile(bad); !handled || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt v3 file: handled=%v err=%v, want handled ErrCorrupt", handled, err)
	}
}

// TestPrimeDataset checks the pregenerated-replica install path: a faithful
// dump primes the cache, a mismatched graph is rejected.
func TestPrimeDataset(t *testing.T) {
	d, err := Dataset("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Load()
	if err := PrimeDataset("DBLP", g); err != nil {
		t.Fatal(err)
	}
	if got := d.Load(); got != g {
		t.Fatal("primed graph not returned by Load")
	}
	if err := PrimeDataset("DBLP", GenerateRing(10)); err == nil {
		t.Fatal("mismatched replica must be rejected")
	}
	if err := PrimeDataset("NoSuch", g); err == nil {
		t.Fatal("unknown dataset must be rejected")
	}
}
