package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"strconv"
	"strings"
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

// ReadEdgeList parses a SNAP-style edge list. Lines starting with '#' are
// comments. n must be at least max vertex id + 1; pass 0 to infer it. An
// edge referencing a vertex id at or beyond an explicit n is an error, not
// a panic, and an input with no edges at all is an error unless n was given
// explicitly (an explicit n with no edges is a legitimate graph of n
// isolated vertices). Inputs implying more than 2^28 vertices are rejected.
func ReadEdgeList(r io.Reader, n int) (*Graph, error) {
	type rawEdge struct {
		from, to VertexID
		w        float32
	}
	var edges []rawEdge
	weighted := false
	maxID := VertexID(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: need at least 2 fields", line)
		}
		from, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		to, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		w := float32(1)
		if len(fields) >= 3 {
			wf, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			w = float32(wf)
			weighted = true
		}
		e := rawEdge{from: VertexID(from), to: VertexID(to), w: w}
		edges = append(edges, e)
		if e.from > maxID {
			maxID = e.from
		}
		if e.to > maxID {
			maxID = e.to
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) == 0 && n == 0 {
		return nil, errors.New("graph: empty edge list (no edges and no explicit vertex count)")
	}
	if uint64(maxID)+1 > maxLoadVertices {
		return nil, fmt.Errorf("graph: vertex id %d exceeds the loader limit", maxID)
	}
	if n == 0 {
		n = int(maxID) + 1
	} else if len(edges) > 0 && int64(maxID) >= int64(n) {
		return nil, fmt.Errorf("graph: vertex id %d out of range for declared vertex count %d", maxID, n)
	}
	b := NewBuilder(n, weighted)
	for _, e := range edges {
		b.AddWeightedEdge(e.from, e.to, e.w)
	}
	return b.Build(), nil
}

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

	binaryHeaderBytes  = 5 * 8
	binaryTrailerBytes = 8
)

var binaryCRCTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt is wrapped by ReadBinary errors caused by damaged bytes: bad
// magic, unsupported version, a header whose claimed sizes exceed the input,
// truncation, structural nonsense (offsets out of order, neighbors out of
// range), trailing garbage, or a checksum mismatch. A damaged graph file is
// never partially loaded.
var ErrCorrupt = errors.New("graph: corrupt graph file")

// binaryHeader is the decoded and validated fixed header of a dump.
type binaryHeader struct {
	n        int
	arcs     int64
	weighted bool
}

// bodyBytes returns the exact byte length of the section payload the
// header describes (offsets + adjacency + optional weights).
func (h binaryHeader) bodyBytes() int64 {
	b := int64(h.n+1)*8 + h.arcs*4
	if h.weighted {
		b += h.arcs * 4
	}
	return b
}

// parseBinaryHeader validates the fixed 40-byte header. Nothing has been
// allocated yet when it rejects, so forged size claims cost nothing.
func parseBinaryHeader(hdr []byte) (binaryHeader, error) {
	var w [5]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(hdr[8*i:])
	}
	if w[0] != binaryMagic {
		return binaryHeader{}, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, w[0])
	}
	if w[1] != binaryVersion {
		return binaryHeader{}, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, w[1], binaryVersion)
	}
	if w[2] > maxLoadVertices || w[3] > 64*maxLoadVertices {
		return binaryHeader{}, fmt.Errorf("%w: header claims %d vertices / %d arcs, beyond the loader limit",
			ErrCorrupt, w[2], w[3])
	}
	return binaryHeader{
		n:        int(w[2]),
		arcs:     int64(w[3]),
		weighted: w[4]&1 != 0,
	}, nil
}

// WriteBinary writes the version 3 binary encoding of the graph: the CSR
// arrays as raw little-endian sections under a checksummed header, laid out
// for direct (bulk-read or mmap) loading.
func WriteBinary(w io.Writer, g *Graph) error {
	crc := crc64.New(binaryCRCTable)
	mw := io.MultiWriter(w, crc)
	flags := uint64(0)
	if g.Weighted() {
		flags = 1
	}
	var hdr [binaryHeaderBytes]byte
	for i, v := range []uint64{binaryMagic, binaryVersion, uint64(g.n), uint64(len(g.adj)), flags} {
		binary.LittleEndian.PutUint64(hdr[8*i:], v)
	}
	if _, err := mw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeInt64s(mw, g.offsets); err != nil {
		return err
	}
	if err := writeVertexIDs(mw, g.adj); err != nil {
		return err
	}
	if g.Weighted() {
		if err := writeFloat32s(mw, g.weights); err != nil {
			return err
		}
	}
	var tr [binaryTrailerBytes]byte
	binary.LittleEndian.PutUint64(tr[:], crc.Sum64())
	_, err := w.Write(tr[:])
	return err
}

// ReadBinary reads a graph written by WriteBinary. The graph must be the
// entire remainder of the stream; damaged bytes yield
// an error wrapping ErrCorrupt and structural invariants (monotone offsets,
// in-range neighbors) are verified, so a corrupt file is never silently
// mis-loaded.
//
// When the stream can report its size (io.Seeker, e.g. a file or a
// bytes.Reader), the header's claimed sizes are checked against the real
// remainder before anything is allocated, and the body is bulk-read
// straight into the final 64-bit-aligned arrays. Streams of unknown size
// are accumulated incrementally, so allocation is bounded by the bytes the
// input actually contains — a forged header on a 100-byte file can never
// balloon memory either way.
func ReadBinary(r io.Reader) (*Graph, error) {
	remain := int64(-1)
	if s, ok := r.(io.Seeker); ok {
		if sz, err := seekerRemaining(s); err == nil {
			remain = sz
		}
	}
	var hdr [binaryHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	h, err := parseBinaryHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	body := h.bodyBytes()
	if remain >= 0 {
		want := binaryHeaderBytes + body + binaryTrailerBytes
		if remain < want {
			return nil, fmt.Errorf("%w: input is %d bytes, header describes %d", ErrCorrupt, remain, want)
		}
		if remain > want {
			return nil, fmt.Errorf("%w: trailing bytes after checksum", ErrCorrupt)
		}
	}
	buf, err := readBody(r, body, remain >= 0)
	if err != nil {
		return nil, err
	}
	crc := crc64.Update(0, binaryCRCTable, hdr[:])
	crc = crc64.Update(crc, binaryCRCTable, buf)
	var tr [binaryTrailerBytes]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum trailer: %v", ErrCorrupt, err)
	}
	if want := binary.LittleEndian.Uint64(tr[:]); crc != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %016x want %016x)", ErrCorrupt, crc, want)
	}
	if remain < 0 {
		var one [1]byte
		if _, err := io.ReadFull(r, one[:]); err != io.EOF {
			return nil, fmt.Errorf("%w: trailing bytes after checksum", ErrCorrupt)
		}
	}
	return decodeBinaryBody(h, buf)
}

// seekerRemaining returns the byte count from the current position to the
// end of the stream, restoring the position.
func seekerRemaining(s io.Seeker) (int64, error) {
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return 0, err
	}
	return end - cur, nil
}

// readBody reads exactly n body bytes into a 64-bit-aligned buffer. With
// sized set (the input length is known and already validated against the
// header) the final buffer is allocated up front and filled with one
// ReadFull. For unknown-size streams the bytes are accumulated through a
// growing buffer first and copied into the aligned allocation only once
// they all actually arrived, so a forged header never allocates more than
// the input holds.
func readBody(r io.Reader, n int64, sized bool) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if sized {
		buf := alignedBytes(n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated body: %v", ErrCorrupt, err)
		}
		return buf, nil
	}
	var acc bytes.Buffer
	if m, err := io.CopyN(&acc, r, n); err != nil {
		return nil, fmt.Errorf("%w: truncated body: read %d of %d bytes: %v", ErrCorrupt, m, n, err)
	}
	buf := alignedBytes(n)
	copy(buf, acc.Bytes())
	return buf, nil
}

// decodeBinaryBody turns a complete, checksum-verified body into a Graph.
// body must be 64-bit aligned (alignedBytes, or an mmap offset that is a
// multiple of 8). On little-endian hosts the sections are aliased in place
// — the arrays ARE the file bytes — while big-endian hosts fall back to an
// explicit element loop. Both paths end in the same structural validation
// and NewCSRView.
func decodeBinaryBody(h binaryHeader, body []byte) (*Graph, error) {
	offBytes := int64(h.n+1) * 8
	adjBytes := h.arcs * 4
	var (
		offsets []int64
		adj     []VertexID
		weights []float32
	)
	if hostLittleEndian {
		offsets = castInt64s(body[:offBytes])
		adj = castVertexIDs(body[offBytes : offBytes+adjBytes])
		if h.weighted {
			weights = castFloat32s(body[offBytes+adjBytes:])
		}
	} else {
		offsets = decodeInt64s(body[:offBytes])
		adj = decodeVertexIDs(body[offBytes : offBytes+adjBytes])
		if h.weighted {
			weights = decodeFloat32s(body[offBytes+adjBytes:])
		}
	}
	// Structural validation: the checksum guards transport, not the writer,
	// so a forged-but-consistent file must still describe a valid CSR.
	if offsets[0] != 0 || offsets[h.n] != int64(len(adj)) {
		return nil, fmt.Errorf("%w: offset bounds [%d, %d] do not span %d arcs",
			ErrCorrupt, offsets[0], offsets[h.n], len(adj))
	}
	for v := 0; v < h.n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("%w: offsets decrease at vertex %d", ErrCorrupt, v)
		}
	}
	for _, u := range adj {
		if int(u) >= h.n {
			return nil, fmt.Errorf("%w: neighbor %d out of range n=%d", ErrCorrupt, u, h.n)
		}
	}
	g, err := NewCSRView(h.n, offsets, adj, weights)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

// parseBinaryImage decodes a complete in-memory dump image — the zero-copy
// path behind the mmap loader. data must begin on a 64-bit boundary (a
// page-aligned mapping qualifies); the returned graph aliases data, which
// therefore must stay mapped and unmodified for the graph's lifetime.
func parseBinaryImage(data []byte) (*Graph, error) {
	if len(data) < binaryHeaderBytes+binaryTrailerBytes {
		return nil, fmt.Errorf("%w: truncated header: %d bytes", ErrCorrupt, len(data))
	}
	h, err := parseBinaryHeader(data[:binaryHeaderBytes])
	if err != nil {
		return nil, err
	}
	want := binaryHeaderBytes + h.bodyBytes() + binaryTrailerBytes
	if int64(len(data)) < want {
		return nil, fmt.Errorf("%w: input is %d bytes, header describes %d", ErrCorrupt, len(data), want)
	}
	if int64(len(data)) > want {
		return nil, fmt.Errorf("%w: trailing bytes after checksum", ErrCorrupt)
	}
	crc := crc64.Checksum(data[:want-binaryTrailerBytes], binaryCRCTable)
	if got := binary.LittleEndian.Uint64(data[want-binaryTrailerBytes:]); crc != got {
		return nil, fmt.Errorf("%w: checksum mismatch (got %016x want %016x)", ErrCorrupt, crc, got)
	}
	return decodeBinaryBody(h, data[binaryHeaderBytes:want-binaryTrailerBytes])
}

// LoadBinaryFile reads a graphgen binary file from disk — the shared
// loader behind vcrun -graph-file, vcbench -graph-dir and the vcserve
// snapshot store. Dumps are mmapped when the platform supports it (the CSR
// arrays alias the page cache directly); otherwise — non-unix builds, a
// header the mapping path will not take, or any mmap hiccup — the stream
// loader takes over and reports the canonical outcome.
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
