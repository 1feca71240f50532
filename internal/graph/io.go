package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"vcmt/internal/rec"
)

// WriteEdgeList writes the graph as a whitespace-separated edge list
// ("from to [weight]"), the interchange format SNAP datasets use.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		ns := g.Neighbors(VertexID(v))
		for i, u := range ns {
			var err error
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", v, u, g.Weight(VertexID(v), i))
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, u)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxLoadVertices bounds the vertex universe a loader will allocate for,
// protecting against malformed or adversarial inputs whose vertex ids
// imply absurd allocations (the largest graph in the paper has 65.6M
// vertices).
const maxLoadVertices = 1 << 28

// Binary graph file format (version 3):
//
//	magic    uint64  "VCMT"
//	version  uint64  format version (3)
//	n        uint64  vertex count
//	arcs     uint64  directed arc count
//	flags    uint64  bit 0: weights present
//	offsets  [n+1]int64
//	adj      [arcs]uint32
//	weights  [arcs]float32 (only when flagged)
//	crc      uint64  CRC-64 (ECMA) over everything before it
//
// All fields are little-endian. The body IS the CSR arrays, laid out
// exactly as Graph holds them in memory (the header is 40 bytes, so every
// section lands on its natural alignment), and the loader is entitled to
// bulk-read or mmap the body straight into the final offsets/adj/weights
// arrays behind NewCSRView, with no per-element decode on the hot path.
// Because vertex ids are positional in CSR, the load order is byte-stable
// by construction — partition assignment over a reloaded dump is identical
// to the graph that wrote it, which the engine's owner/rank routing tables
// and the difftest goldens depend on.
//
// Only version 3 is read. Version 2 (the same layout, decoded element by
// element through reflection) and version 1 (no version field, no
// checksum) are rejected as ErrCorrupt like any other unsupported version;
// rewrite an old dump with graphgen.
const (
	binaryMagic   = 0x56434d54 // "VCMT"
	binaryVersion = 3

	binaryHeaderBytes = 5 * 8
)

// ErrCorrupt is wrapped by ReadBinary errors caused by damaged bytes: bad
// magic, unsupported version, a header whose claimed sizes exceed the input,
// truncation, structural nonsense (offsets out of order, neighbors out of
// range), trailing garbage, or a checksum mismatch. A damaged graph file is
// never partially loaded. It wraps rec.ErrCorrupt.
var ErrCorrupt = rec.Sentinel("graph: corrupt graph file")

// binaryHeader is the decoded and validated fixed header of a dump.
type binaryHeader struct {
	n        int
	arcs     int64
	weighted bool
}

// imageBytes returns the exact byte length of the dump the header
// describes: header, offsets, adjacency, optional weights and trailer.
func (h binaryHeader) imageBytes() int64 {
	b := binaryHeaderBytes + int64(h.n+1)*8 + h.arcs*4 + rec.TrailerLen
	if h.weighted {
		b += h.arcs * 4
	}
	return b
}

// parseBinaryHeader validates the fixed 40-byte header at the start of
// image. Nothing has been allocated yet when it rejects, so forged size
// claims cost nothing.
func parseBinaryHeader(image []byte) (binaryHeader, error) {
	c := rec.NewCursor(image, ErrCorrupt)
	magic, version, n, arcs, flags := c.U64(), c.U64(), c.U64(), c.U64(), c.U64()
	switch {
	case c.Err() != nil:
		return binaryHeader{}, c.Err()
	case magic != binaryMagic:
		return binaryHeader{}, c.Fail("bad magic %#x", magic)
	case version != binaryVersion:
		return binaryHeader{}, c.Fail("unsupported version %d (want %d)", version, binaryVersion)
	case n > maxLoadVertices || arcs > 64*maxLoadVertices:
		return binaryHeader{}, c.Fail("header claims %d vertices / %d arcs, beyond the loader limit", n, arcs)
	}
	return binaryHeader{n: int(n), arcs: int64(arcs), weighted: flags&1 != 0}, nil
}

// WriteBinary writes the version 3 binary encoding of the graph: the CSR
// arrays as raw little-endian sections under a checksummed header, laid out
// for direct (bulk-read or mmap) loading.
func WriteBinary(w io.Writer, g *Graph) error {
	flags := uint64(0)
	if g.Weighted() {
		flags = 1
	}
	var enc rec.Writer
	enc.Reset(w, binaryHeaderBytes)
	for _, v := range []uint64{binaryMagic, binaryVersion, uint64(g.n), uint64(len(g.adj)), flags} {
		enc.U64(v)
	}
	writeSection(&enc, g.offsets)
	writeSection(&enc, g.adj)
	writeSection(&enc, g.weights)
	_, err := enc.Finish()
	return err
}

// ReadBinary reads a graph written by WriteBinary. The graph must be the
// entire remainder of the stream; damaged bytes yield
// an error wrapping ErrCorrupt and structural invariants (monotone offsets,
// in-range neighbors) are verified, so a corrupt file is never silently
// mis-loaded.
//
// It reads the header, then the rest of the stream — at most one byte past
// the image the header describes — into one 64-bit-aligned image, and hands
// that to parseBinaryImage, the mmap loader's parser. When the stream can
// report its size (io.Seeker, e.g. a file or a bytes.Reader) the image is
// allocated once at that size; other streams grow it by doubling as the
// bytes arrive. Either way allocation is bounded by what the input holds,
// so a forged header on a 100-byte file can never balloon memory.
func ReadBinary(r io.Reader) (*Graph, error) {
	var hdr [binaryHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, rec.Errorf(ErrCorrupt, "truncated header: %v", err)
	}
	h, err := parseBinaryHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	limit := h.imageBytes() + 1
	size := min(limit, 64<<10)
	if s, ok := r.(io.Seeker); ok {
		if cur, err := s.Seek(0, io.SeekCurrent); err == nil {
			if end, err := s.Seek(0, io.SeekEnd); err == nil {
				size = min(limit, binaryHeaderBytes+end-cur+1)
			}
			if _, err := s.Seek(cur, io.SeekStart); err != nil {
				return nil, fmt.Errorf("graph: reading a dump: %w", err)
			}
		}
	}
	img := alignedBytes(size)
	n := int64(copy(img, hdr[:]))
	for {
		k, err := io.ReadFull(r, img[n:])
		if n += int64(k); err == io.EOF || err == io.ErrUnexpectedEOF || n == limit {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("graph: reading a dump: %w", err)
		}
		grown := alignedBytes(min(2*n, limit))
		copy(grown, img)
		img = grown
	}
	return parseBinaryImage(img[:n])
}

// decodeBinaryBody turns a complete, checksum-verified body into a Graph.
// body must be 64-bit aligned (alignedBytes, or an mmap offset that is a
// multiple of 8). On little-endian hosts the sections are aliased in place
// — the arrays ARE the file bytes — while big-endian hosts decode them
// (loadSection). Both paths end in the same structural validation and
// NewCSRView.
func decodeBinaryBody(h binaryHeader, body []byte) (*Graph, error) {
	offBytes, adjBytes := int64(h.n+1)*8, h.arcs*4
	offsets := loadSection[int64](body[:offBytes])
	adj := loadSection[VertexID](body[offBytes : offBytes+adjBytes])
	var weights []float32
	if h.weighted {
		weights = loadSection[float32](body[offBytes+adjBytes:])
	}
	// Structural validation: the checksum guards transport, not the writer,
	// so a forged-but-consistent file must still describe a valid CSR.
	if offsets[0] != 0 || offsets[h.n] != int64(len(adj)) {
		return nil, rec.Errorf(ErrCorrupt, "offset bounds [%d, %d] do not span %d arcs",
			offsets[0], offsets[h.n], len(adj))
	}
	for v := 0; v < h.n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, rec.Errorf(ErrCorrupt, "offsets decrease at vertex %d", v)
		}
	}
	for _, u := range adj {
		if int(u) >= h.n {
			return nil, rec.Errorf(ErrCorrupt, "neighbor %d out of range n=%d", u, h.n)
		}
	}
	g, err := NewCSRView(h.n, offsets, adj, weights)
	if err != nil {
		return nil, rec.Errorf(ErrCorrupt, "%v", err)
	}
	return g, nil
}

// parseBinaryImage decodes a complete in-memory dump image — the whole
// stream ReadBinary read, or the mmap loader's mapping. data must begin on
// a 64-bit boundary (alignedBytes and a page-aligned mapping qualify); the
// returned graph aliases data, which therefore must stay unmodified for the
// graph's lifetime.
func parseBinaryImage(data []byte) (*Graph, error) {
	h, err := parseBinaryHeader(data)
	if err != nil {
		return nil, err
	}
	if want := h.imageBytes(); int64(len(data)) != want {
		return nil, rec.Errorf(ErrCorrupt, "input is %d bytes, header describes %d", len(data), want)
	}
	body, err := rec.Checked(data, ErrCorrupt)
	if err != nil {
		return nil, err
	}
	return decodeBinaryBody(h, body[binaryHeaderBytes:])
}

// LoadBinaryFile reads a graphgen binary file from disk — the shared
// loader behind vcrun -graph-file, vcbench -graph-dir and the vcserve
// snapshot store. Dumps are mmapped when the platform supports it (the CSR
// arrays alias the page cache directly); otherwise — non-unix builds or
// any mmap hiccup — the stream loader takes over.
func LoadBinaryFile(path string) (*Graph, error) {
	if g, handled, err := mmapBinaryFile(path); handled {
		if err != nil {
			return nil, fmt.Errorf("graph: %s: %w", path, err)
		}
		return g, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return g, nil
}
