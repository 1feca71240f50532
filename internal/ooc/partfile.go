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
// The framing, the varints, the checksum and the bounds checks are
// internal/rec's: a Writer encodes through a rec.Writer with a writeBufLen
// buffer and a Reader decodes records in place through a rec.Reader with a
// readBufLen one, both kept across files, and a PartitionedRunner owns one
// Reader (it reads one file at a time) and a free list of Writers.
package ooc

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"vcmt/internal/graph"
	"vcmt/internal/rec"
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

	headerLen = 5

	// readBufLen and writeBufLen size a Reader's decode buffer and a
	// Writer's encode buffer. Decoding needs at least MaxVarintLen64 bytes.
	readBufLen  = 4 << 10
	writeBufLen = 4 << 10
)

// ErrCorrupt is wrapped by every decode error caused by malformed input.
// It wraps rec.ErrCorrupt.
var ErrCorrupt = rec.Sentinel("ooc: corrupt partition file")

// ErrVersion is returned for partition files with an unsupported version
// byte. It wraps ErrCorrupt so a single errors.Is covers both.
var ErrVersion = fmt.Errorf("unsupported partition version: %w", ErrCorrupt)

// Writer appends records to a partition file.
type Writer struct {
	enc      rec.Writer
	f        *os.File // the destination when file-backed, until Finish closes it
	path     string
	kind     byte
	weighted bool
	records  int64
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
	*w = Writer{enc: w.enc, kind: kind, weighted: weighted}
	w.enc.Reset(dst, writeBufLen)
	flags := byte(0)
	if weighted {
		flags |= flagWeighted
	}
	w.enc.Bytes([]byte{partMagic0, partMagic1, Version, kind, flags})
}

// AppendMessage appends one message record. The payload is copied.
func (w *Writer) AppendMessage(dst graph.VertexID, payload []byte) error {
	if w.kind != KindMessages {
		return fmt.Errorf("ooc: AppendMessage on kind-%d partition", w.kind)
	}
	rlen := rec.UvarintLen(uint64(dst)) + len(payload)
	if rlen > MaxRecordBytes {
		return fmt.Errorf("ooc: message record of %d bytes exceeds MaxRecordBytes", rlen)
	}
	w.enc.Uvarint(uint64(rlen))
	w.enc.Uvarint(uint64(dst))
	w.enc.Bytes(payload)
	w.records++
	return w.enc.Err()
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
	rlen := rec.UvarintLen(uint64(v)) + rec.UvarintLen(uint64(len(neighbors))) + 4*len(weights)
	for _, u := range neighbors {
		rlen += rec.UvarintLen(uint64(u))
	}
	if rlen > MaxRecordBytes {
		return fmt.Errorf("ooc: edge record of %d bytes exceeds MaxRecordBytes", rlen)
	}
	w.enc.Uvarint(uint64(rlen))
	w.enc.Uvarint(uint64(v))
	w.enc.Uvarint(uint64(len(neighbors)))
	for _, u := range neighbors {
		w.enc.Uvarint(uint64(u))
	}
	for _, wt := range weights {
		w.enc.U32(math.Float32bits(wt))
	}
	w.records++
	return w.enc.Err()
}

// Records returns the number of records appended so far.
func (w *Writer) Records() int64 { return w.records }

// Bytes returns the encoded bytes appended so far (header + records; the
// end marker, count and trailer are added by Finish).
func (w *Writer) Bytes() int64 { return w.enc.Len() }

// Finish writes the end marker, record count and CRC trailer, flushes, and
// closes the underlying file if any. It returns the total encoded size.
func (w *Writer) Finish() (int64, error) {
	w.enc.Uvarint(0)
	w.enc.Uvarint(uint64(w.records))
	n, err := w.enc.Finish()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return n, err
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
	dec      rec.Reader
	f        *os.File
	kind     byte
	weighted bool
	records  int64
	done     bool
	body     []byte // the current record body, aliasing the read buffer
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
	*r = Reader{dec: r.dec, nbrs: r.nbrs, wts: r.wts}
	r.dec.Reset(src, readBufLen, ErrCorrupt)
	hdr, err := r.dec.Bytes(headerLen)
	if err != nil {
		return err
	}
	if hdr[0] != partMagic0 || hdr[1] != partMagic1 {
		return rec.Errorf(ErrCorrupt, "bad magic %q", hdr[:2])
	}
	if hdr[2] != Version {
		return fmt.Errorf("ooc: version %d: %w", hdr[2], ErrVersion)
	}
	r.kind = hdr[3]
	if r.kind != KindEdges && r.kind != KindMessages {
		return rec.Errorf(ErrCorrupt, "unknown partition kind %d", r.kind)
	}
	if hdr[4]&^flagWeighted != 0 {
		return rec.Errorf(ErrCorrupt, "unknown flags %#x", hdr[4])
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
func (r *Reader) Bytes() int64 { return r.dec.Offset() }

// Close closes the underlying file, if any.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// next points r.body at the next record body, or returns io.EOF after
// verifying the end marker, the record count and the trailer.
func (r *Reader) next() error {
	if r.done {
		return io.EOF
	}
	body, err := r.dec.Record(MaxRecordBytes)
	if err != nil {
		return err
	}
	if body == nil {
		cnt, err := r.dec.Uvarint()
		if err != nil {
			return err
		}
		if cnt != uint64(r.records) {
			return rec.Errorf(ErrCorrupt, "record count %d, decoded %d", cnt, r.records)
		}
		if err := r.dec.Trailer(); err != nil {
			return err
		}
		r.done = true
		return io.EOF
	}
	r.body = body
	r.records++
	return nil
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
	dst, n := rec.Uvarint(r.body)
	if n == 0 || dst > math.MaxUint32 {
		return 0, nil, rec.Errorf(ErrCorrupt, "bad message destination in the record before offset %d", r.dec.Offset())
	}
	return graph.VertexID(dst), r.body[n:], nil
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
	c := rec.NewCursor(r.body, ErrCorrupt)
	v, deg := c.Uvarint(), c.Uvarint()
	// Every neighbor costs at least one byte (plus 4 for a weight), so the
	// remaining body bounds the degree: a hostile count cannot force a
	// larger allocation than the record it arrived in.
	per := 1
	if r.weighted {
		per = 5
	}
	if deg > uint64(c.Len()/per) {
		c.Fail("degree %d exceeds record body", deg)
	}
	if err := c.Err(); err != nil {
		return 0, nil, nil, err
	}
	ids := v
	r.nbrs = slices.Grow(r.nbrs[:0], int(deg))[:deg]
	for i := range r.nbrs {
		u := c.Uvarint()
		ids |= u
		r.nbrs[i] = graph.VertexID(u)
	}
	if ids > math.MaxUint32 {
		c.Fail("vertex id overflows VertexID")
	}
	var wts []float32
	if r.weighted {
		r.wts = slices.Grow(r.wts[:0], int(deg))[:deg]
		for i := range r.wts {
			r.wts[i] = math.Float32frombits(c.U32())
		}
		wts = r.wts
	}
	if err := c.Done(); err != nil {
		return 0, nil, nil, err
	}
	return graph.VertexID(v), r.nbrs, wts, nil
}
