// Package ooc implements true out-of-core execution for the vertex-centric
// engine, following GraphD ("Efficient Processing of Very Large Graphs in a
// Small Cluster") and PartitionedVC: edges and oversized inboxes live in
// sequentially-read partition files on disk, and supersteps stream them
// through a bounded memory window while only O(V) vertex state stays
// resident. The package is payload-agnostic — messages are opaque []byte
// payloads; the engine's typed Codec encodes and decodes around it.
//
// This file defines the on-disk partition format, a versioned little-endian
// framed encoding in the internal/wire idiom:
//
//	header   'V' 'P' version kind flags                  (5 bytes)
//	records  uvarint(len) body ...                       (len > 0)
//	end      uvarint(0)                                  (1 byte)
//	count    uvarint(record count)                       (cross-check)
//	trailer  CRC-64/ECMA of all preceding bytes, LE      (8 bytes)
//
// A message record body is uvarint(dst) followed by the raw payload. An edge
// record body is uvarint(v) uvarint(deg) then deg canonical uvarint neighbor
// IDs, followed by deg little-endian float32 weights when the weighted flag
// is set. All varints are canonical (minimal length); decoders reject
// non-minimal encodings, truncation, trailing bytes, count mismatches and
// checksum failures with errors wrapping ErrCorrupt, and never panic on
// hostile input. Allocation during decode is bounded by MaxRecordBytes.
//
// A file gets no buffer of its own: a Writer encodes into a writeBufLen
// buffer and a Reader decodes records in place from a readBufLen one, both
// kept across files, and a PartitionedRunner owns one Reader (it reads one
// file at a time) and a free list of Writers. The CRC is folded over whole
// spans, each flushed chunk and each consumed stretch of the read buffer.
package ooc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"slices"

	"vcmt/internal/graph"
)

const (
	partMagic0 = 'V'
	partMagic1 = 'P'

	// Version is the current partition file format version.
	Version = 1

	// KindEdges marks an edge partition file; KindMessages a message
	// partition (inbox or spill) file.
	KindEdges    = 1
	KindMessages = 2

	// flagWeighted marks edge records as carrying per-edge float32 weights.
	flagWeighted = 1

	// MaxRecordBytes bounds a single record, and therefore the allocation a
	// hostile length prefix can force on a decoder.
	MaxRecordBytes = 1 << 27

	headerLen  = 5
	trailerLen = 8

	// readBufLen and writeBufLen size a Reader's decode buffer and a
	// Writer's encode buffer. Decoding needs at least MaxVarintLen64 bytes.
	readBufLen  = 4 << 10
	writeBufLen = 4 << 10
)

// ErrCorrupt is wrapped by every decode error caused by malformed input.
var ErrCorrupt = errors.New("corrupt partition file")

// ErrVersion is returned for partition files with an unsupported version
// byte. It wraps ErrCorrupt so a single errors.Is covers both.
var ErrVersion = fmt.Errorf("unsupported partition version: %w", ErrCorrupt)

var crcTable = crc64.MakeTable(crc64.ECMA)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("ooc: "+format+": %w", append(args, ErrCorrupt)...)
}

// uvarintLen returns the canonical encoded length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Writer appends records to a partition file. Records are encoded into a
// fixed writeBufLen buffer, and each flush folds the whole chunk into a
// running CRC-64/ECMA, so Finish can emit the trailer without re-reading
// the file.
type Writer struct {
	dst      io.Writer
	f        *os.File // dst when file-backed, until Finish closes it
	path     string
	buf      []byte // encoded bytes not yet written out
	crc      uint64 // CRC of the bytes written out
	written  int64
	kind     byte
	weighted bool
	records  int64
	err      error
}

// NewWriter starts a partition stream on an arbitrary io.Writer (used by
// tests and the canonical re-encode check); Create is the file-backed form.
func NewWriter(w io.Writer, kind byte, weighted bool) *Writer {
	pw := new(Writer)
	pw.start(w, kind, weighted)
	return pw
}

// Create opens path for writing and emits the partition header.
func Create(path string, kind byte, weighted bool) (*Writer, error) {
	w := new(Writer)
	if err := w.create(path, kind, weighted); err != nil {
		return nil, err
	}
	return w, nil
}

// create is Create on an existing Writer, keeping its buffer.
func (w *Writer) create(path string, kind byte, weighted bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w.start(f, kind, weighted)
	w.f, w.path = f, path
	return nil
}

// start points w at dst, keeping its buffer, and encodes the header.
func (w *Writer) start(dst io.Writer, kind byte, weighted bool) {
	*w = Writer{dst: dst, buf: w.buf[:0], kind: kind, weighted: weighted}
	if w.buf == nil {
		w.buf = make([]byte, 0, writeBufLen)
	}
	flags := byte(0)
	if weighted {
		flags |= flagWeighted
	}
	w.buf = append(w.buf, partMagic0, partMagic1, Version, kind, flags)
}

// flush folds the buffer into the CRC as one span and writes it out. The
// first write error sticks.
func (w *Writer) flush() {
	w.crc = crc64.Update(w.crc, crcTable, w.buf)
	if w.err == nil {
		_, w.err = w.dst.Write(w.buf)
		w.written += int64(len(w.buf))
	}
	w.buf = w.buf[:0]
}

// room flushes the buffer unless n more bytes fit in it.
func (w *Writer) room(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
}

func (w *Writer) uvarint(v uint64) {
	w.room(binary.MaxVarintLen64)
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *Writer) write(b []byte) {
	for len(b) > 0 {
		w.room(1)
		n := copy(w.buf[len(w.buf):cap(w.buf)], b)
		w.buf, b = w.buf[:len(w.buf)+n], b[n:]
	}
}

// AppendMessage appends one message record. The payload is copied.
func (w *Writer) AppendMessage(dst graph.VertexID, payload []byte) error {
	if w.kind != KindMessages {
		return fmt.Errorf("ooc: AppendMessage on kind-%d partition", w.kind)
	}
	rlen := uvarintLen(uint64(dst)) + len(payload)
	if rlen > MaxRecordBytes {
		return fmt.Errorf("ooc: message record of %d bytes exceeds MaxRecordBytes", rlen)
	}
	w.uvarint(uint64(rlen))
	w.uvarint(uint64(dst))
	w.write(payload)
	w.records++
	return w.err
}

// AppendEdges appends one edge record: vertex v with its out-neighbors and,
// for weighted partitions, the parallel weights.
func (w *Writer) AppendEdges(v graph.VertexID, neighbors []graph.VertexID, weights []float32) error {
	if w.kind != KindEdges {
		return fmt.Errorf("ooc: AppendEdges on kind-%d partition", w.kind)
	}
	if w.weighted != (weights != nil) {
		return fmt.Errorf("ooc: weighted flag %v but weights %v", w.weighted, weights != nil)
	}
	if weights != nil && len(weights) != len(neighbors) {
		return fmt.Errorf("ooc: %d weights for %d neighbors", len(weights), len(neighbors))
	}
	rlen := uvarintLen(uint64(v)) + uvarintLen(uint64(len(neighbors))) + 4*len(weights)
	for _, u := range neighbors {
		rlen += uvarintLen(uint64(u))
	}
	if rlen > MaxRecordBytes {
		return fmt.Errorf("ooc: edge record of %d bytes exceeds MaxRecordBytes", rlen)
	}
	w.uvarint(uint64(rlen))
	w.uvarint(uint64(v))
	w.uvarint(uint64(len(neighbors)))
	for _, u := range neighbors {
		w.uvarint(uint64(u))
	}
	for _, wt := range weights {
		w.room(4)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, math.Float32bits(wt))
	}
	w.records++
	return w.err
}

// Records returns the number of records appended so far.
func (w *Writer) Records() int64 { return w.records }

// Bytes returns the encoded bytes appended so far (header + records; the
// end marker, count and trailer are added by Finish).
func (w *Writer) Bytes() int64 { return w.written + int64(len(w.buf)) }

// Finish writes the end marker, record count and CRC trailer, flushes, and
// closes the underlying file if any. It returns the total encoded size.
func (w *Writer) Finish() (int64, error) {
	w.uvarint(0)
	w.uvarint(uint64(w.records))
	w.flush()
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.crc) // the CRC of all before it
	w.flush()
	if w.f != nil {
		if err := w.f.Close(); w.err == nil {
			w.err = err
		}
		w.f = nil
	}
	return w.written, w.err
}

// Abort discards the partition: it closes the file if still open and
// removes it, whether Finish never ran, failed or succeeded.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.path != "" {
		os.Remove(w.path)
		w.path = ""
	}
}

// Reader streams records from a partition, decoding each in place from its
// read buffer and verifying the record count and CRC trailer when the end
// marker is reached. Decoded slices alias internal buffers that are reused
// by the next call.
type Reader struct {
	src      io.Reader
	f        *os.File
	buf      []byte // readBufLen, or the longest record read so far
	pos, end int    // buf[pos:end] is read but not yet decoded
	off      int64  // stream offset of buf[0]
	srcErr   error  // the source's first error; io.EOF at its end
	crc      uint64 // CRC of the stream before buf[0]
	kind     byte
	weighted bool
	records  int64
	done     bool
	body     []byte // the current record body, aliasing buf
	nbrs     []graph.VertexID
	wts      []float32
}

// Open opens a partition file and parses its header.
func Open(path string) (*Reader, error) {
	r := new(Reader)
	if err := r.open(path); err != nil {
		return nil, err
	}
	return r, nil
}

// NewReader starts decoding a partition stream from an arbitrary io.Reader.
func NewReader(rd io.Reader) (*Reader, error) {
	r := new(Reader)
	if err := r.init(rd); err != nil {
		return nil, err
	}
	return r, nil
}

// open is Open on an existing Reader, keeping its buffers.
func (r *Reader) open(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := r.init(f); err != nil {
		f.Close()
		return err
	}
	r.f = f
	return nil
}

// init starts decoding src, keeping r's read buffer and decode scratch, and
// parses the header. Every Reader, file-backed or not, starts here.
func (r *Reader) init(src io.Reader) error {
	*r = Reader{src: src, buf: r.buf, nbrs: r.nbrs, wts: r.wts}
	if r.buf == nil {
		r.buf = make([]byte, readBufLen)
	}
	if !r.fill(headerLen) {
		return corrupt("truncated header (%v)", r.srcErr)
	}
	hdr := r.buf[:headerLen]
	r.pos = headerLen
	if hdr[0] != partMagic0 || hdr[1] != partMagic1 {
		return corrupt("bad magic %q", hdr[:2])
	}
	if hdr[2] != Version {
		return fmt.Errorf("ooc: version %d: %w", hdr[2], ErrVersion)
	}
	r.kind = hdr[3]
	if r.kind != KindEdges && r.kind != KindMessages {
		return corrupt("unknown partition kind %d", r.kind)
	}
	if hdr[4]&^flagWeighted != 0 {
		return corrupt("unknown flags %#x", hdr[4])
	}
	r.weighted = hdr[4]&flagWeighted != 0
	return nil
}

// Kind returns the partition kind (KindEdges or KindMessages).
func (r *Reader) Kind() byte { return r.kind }

// Weighted reports whether edge records carry weights.
func (r *Reader) Weighted() bool { return r.weighted }

// Bytes returns the encoded bytes consumed so far: at the verified end of
// the partition (io.EOF), the whole stream.
func (r *Reader) Bytes() int64 { return r.off + int64(r.pos) }

// Close closes the underlying file, if any.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// fill makes n <= len(buf) bytes available at buf[pos:] and reports whether
// the stream held them. A refill first folds the consumed span into the CRC
// and slides the unconsumed tail to the front of the buffer.
func (r *Reader) fill(n int) bool {
	if r.end-r.pos >= n {
		return true
	}
	r.crc = crc64.Update(r.crc, crcTable, r.buf[:r.pos])
	r.off += int64(r.pos)
	r.end, r.pos = copy(r.buf, r.buf[r.pos:r.end]), 0
	for r.end < n && r.srcErr == nil {
		var k int
		k, r.srcErr = r.src.Read(r.buf[r.end:])
		r.end += k
	}
	return r.end >= n
}

// uvarint decodes one canonical varint in place.
func (r *Reader) uvarint(what string) (uint64, error) {
	r.fill(binary.MaxVarintLen64) // short only at the end of the stream
	v, rest, err := bufUvarint(r.buf[r.pos:r.end], what)
	r.pos = r.end - len(rest)
	return v, err
}

// next points r.body at the next record body, or returns io.EOF after
// verifying the end marker, count and trailer.
func (r *Reader) next() error {
	if r.done {
		return io.EOF
	}
	rlen, err := r.uvarint("record length")
	if err != nil {
		return err
	}
	if rlen == 0 {
		return r.verifyEnd()
	}
	if rlen > MaxRecordBytes {
		return corrupt("record of %d bytes exceeds MaxRecordBytes", rlen)
	}
	n := int(rlen)
	if n > len(r.buf) {
		r.buf = append(r.buf, make([]byte, n-len(r.buf))...)
	}
	if !r.fill(n) {
		return corrupt("truncated record (%v)", r.srcErr)
	}
	r.body = r.buf[r.pos : r.pos+n]
	r.pos += n
	r.records++
	return nil
}

// verifyEnd checks, after the end marker, the record count, the CRC trailer
// over everything before it, and that nothing follows it.
func (r *Reader) verifyEnd() error {
	cnt, err := r.uvarint("record count")
	if err != nil {
		return err
	}
	if cnt != uint64(r.records) {
		return corrupt("record count %d, decoded %d", cnt, r.records)
	}
	want := crc64.Update(r.crc, crcTable, r.buf[:r.pos])
	if !r.fill(trailerLen) {
		return corrupt("truncated trailer (%v)", r.srcErr)
	}
	if got := binary.LittleEndian.Uint64(r.buf[r.pos:]); got != want {
		return corrupt("checksum mismatch: file %#x, computed %#x", got, want)
	}
	r.pos += trailerLen
	if r.fill(1) || r.srcErr != io.EOF {
		return corrupt("trailing bytes after trailer")
	}
	r.done = true
	return io.EOF
}

func bufUvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, corrupt("truncated %s", what)
	}
	if n != uvarintLen(v) {
		return 0, nil, corrupt("non-minimal %s varint", what)
	}
	return v, b[n:], nil
}

// NextMessage returns the next message record's destination and payload, or
// io.EOF at the verified end of the partition. The payload aliases an
// internal buffer valid until the next call.
func (r *Reader) NextMessage() (graph.VertexID, []byte, error) {
	if r.kind != KindMessages {
		return 0, nil, fmt.Errorf("ooc: NextMessage on kind-%d partition", r.kind)
	}
	if err := r.next(); err != nil {
		return 0, nil, err
	}
	dst, rest, err := bufUvarint(r.body, "message destination")
	if err != nil {
		return 0, nil, err
	}
	if dst > math.MaxUint32 {
		return 0, nil, corrupt("message destination %d overflows VertexID", dst)
	}
	return graph.VertexID(dst), rest, nil
}

// NextEdges returns the next edge record: the vertex, its neighbors, and the
// parallel weights (nil when unweighted), or io.EOF at the verified end of
// the partition. The slices alias internal buffers valid until the next call.
func (r *Reader) NextEdges() (graph.VertexID, []graph.VertexID, []float32, error) {
	if r.kind != KindEdges {
		return 0, nil, nil, fmt.Errorf("ooc: NextEdges on kind-%d partition", r.kind)
	}
	if err := r.next(); err != nil {
		return 0, nil, nil, err
	}
	v64, rest, err := bufUvarint(r.body, "edge vertex")
	if err != nil {
		return 0, nil, nil, err
	}
	if v64 > math.MaxUint32 {
		return 0, nil, nil, corrupt("edge vertex %d overflows VertexID", v64)
	}
	deg64, rest, err := bufUvarint(rest, "edge degree")
	if err != nil {
		return 0, nil, nil, err
	}
	// Every neighbor costs at least one byte (plus 4 for a weight), so the
	// remaining body bounds the degree: a hostile count cannot force a
	// larger allocation than the record it arrived in.
	per := uint64(1)
	if r.weighted {
		per = 5
	}
	if deg64*per > uint64(len(rest)) {
		return 0, nil, nil, corrupt("degree %d exceeds record body", deg64)
	}
	deg := int(deg64)
	r.nbrs = slices.Grow(r.nbrs[:0], deg)[:deg]
	for i := 0; i < deg; i++ {
		u, r2, err := bufUvarint(rest, "neighbor")
		if err != nil {
			return 0, nil, nil, err
		}
		if u > math.MaxUint32 {
			return 0, nil, nil, corrupt("neighbor %d overflows VertexID", u)
		}
		r.nbrs[i] = graph.VertexID(u)
		rest = r2
	}
	var wts []float32
	if r.weighted {
		if len(rest) != 4*deg {
			return 0, nil, nil, corrupt("%d weight bytes for degree %d", len(rest), deg)
		}
		r.wts = slices.Grow(r.wts[:0], deg)[:deg]
		for i := 0; i < deg; i++ {
			r.wts[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:]))
		}
		wts = r.wts
		rest = rest[4*deg:]
	}
	if len(rest) != 0 {
		return 0, nil, nil, corrupt("%d trailing bytes in edge record", len(rest))
	}
	return graph.VertexID(v64), r.nbrs, wts, nil
}
