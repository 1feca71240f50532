package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"
)

// legacyDump returns g as a dump of a retired format version: the v3 bytes
// under another version word, re-checksummed — exactly what the v2 writer
// produced. Loaders must reject it.
func legacyDump(g *Graph, version uint64) []byte {
	var b bytes.Buffer
	if err := WriteBinary(&b, g); err != nil {
		panic(err)
	}
	data := b.Bytes()
	binary.LittleEndian.PutUint64(data[8:], version)
	body := len(data) - 8
	binary.LittleEndian.PutUint64(data[body:], crc64.Checksum(data[:body], crc64.MakeTable(crc64.ECMA)))
	return data
}

// fuzzBinarySeeds is the shared seed corpus for the binary loader: valid
// files (weighted and not), retired v2 files, a flipped checksum trailer, a
// wrong version word, truncations, trailing garbage, and an empty input. It
// drives both FuzzReadBinary and the corpus round-trip test.
func fuzzBinarySeeds() [][]byte {
	var v3plain, v3weighted bytes.Buffer
	ring := GenerateRing(8)
	wring := WithUniformWeights(GenerateRing(8), 1, 3, 4)
	for _, enc := range []struct {
		buf *bytes.Buffer
		g   *Graph
	}{{&v3plain, ring}, {&v3weighted, wring}} {
		if err := WriteBinary(enc.buf, enc.g); err != nil {
			panic(err)
		}
	}
	v2plain, v2weighted := legacyDump(ring, 2), legacyDump(wring, 2)
	// Flipped trailer byte: everything parses until the checksum comparison.
	flipped := append([]byte(nil), v3plain.Bytes()...)
	flipped[len(flipped)-1] ^= 0x01
	// Wrong version word (v1-style header without a version field decodes
	// this way too: its second word is the vertex count).
	wrongVer := append([]byte(nil), v3plain.Bytes()...)
	wrongVer[8] = 1
	return [][]byte{
		v3plain.Bytes(),
		v3weighted.Bytes(),
		v2plain,
		v2weighted,
		{},
		make([]byte, 40),
		flipped,
		wrongVer,
		v3plain.Bytes()[:v3plain.Len()/2],
		v2plain[:len(v2plain)/2],
		append(append([]byte(nil), v3weighted.Bytes()...), 0xEE),
	}
}

// FuzzReadBinary hardens the binary loader: arbitrary bytes must never
// panic, allocate absurdly, or load as a structurally invalid graph, on
// either the sized (seeker) or the unknown-size stream path — and the two
// paths must agree on every input.
func FuzzReadBinary(f *testing.F) {
	for _, seed := range fuzzBinarySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Headers claiming sizes beyond the loader limit are rejected by
		// ReadBinary itself; still skip multi-hundred-MB (but legal)
		// claims to keep fuzzing fast. Header layout: magic, version, n,
		// arcs, flags.
		if len(data) >= 32 {
			var n, m uint64
			for i := 0; i < 8; i++ {
				n |= uint64(data[16+i]) << (8 * i)
				m |= uint64(data[24+i]) << (8 * i)
			}
			if n > 1<<20 || m > 1<<20 {
				if _, err := ReadBinary(bytes.NewReader(data)); err == nil && n > 1<<28 {
					t.Fatal("oversized header must be rejected")
				}
				return
			}
		}
		g, errSized := ReadBinary(bytes.NewReader(data))
		g2, errStream := ReadBinary(streamOnly{bytes.NewReader(data)})
		if (errSized == nil) != (errStream == nil) {
			t.Fatalf("sized and stream loaders disagree: %v vs %v", errSized, errStream)
		}
		if errSized != nil {
			return
		}
		// Anything the loader accepts must be a structurally valid CSR,
		// identical on both paths.
		n := g.NumVertices()
		if g2.NumVertices() != n || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("path mismatch: (%d,%d) vs (%d,%d)", n, g.NumEdges(), g2.NumVertices(), g2.NumEdges())
		}
		var arcs int64
		for v := 0; v < n; v++ {
			ns := g.Neighbors(VertexID(v))
			arcs += int64(len(ns))
			for _, u := range ns {
				if int(u) >= n {
					t.Fatalf("neighbor %d out of range n=%d", u, n)
				}
			}
		}
		if arcs != g.NumEdges() {
			t.Fatalf("edge count mismatch: %d vs %d", arcs, g.NumEdges())
		}
	})
}
