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
package ooc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"

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

// Writer appends records to a partition file. It maintains a running
// CRC-64/ECMA over every byte written so Finish can emit the trailer without
// re-reading the file.
type Writer struct {
	f        *os.File
	w        *bufio.Writer
	crc      uint64
	kind     byte
	weighted bool
	records  int64
	bytes    int64 // encoded bytes written so far (trailer excluded until Finish)
	scratch  []byte
	err      error
	path     string
}

// NewWriter starts a partition stream on an arbitrary io.Writer (used by
// tests and the canonical re-encode check); Create is the file-backed form.
func NewWriter(w io.Writer, kind byte, weighted bool) *Writer {
	pw := &Writer{w: bufio.NewWriterSize(w, 1<<20), kind: kind, weighted: weighted}
	flags := byte(0)
	if weighted {
		flags |= flagWeighted
	}
	pw.write([]byte{partMagic0, partMagic1, Version, kind, flags})
	return pw
}

// Create opens path for writing and emits the partition header.
func Create(path string, kind byte, weighted bool) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := NewWriter(f, kind, weighted)
	w.f = f
	w.path = path
	return w, w.err
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc64.Update(w.crc, crcTable, b)
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return
	}
	w.bytes += int64(len(b))
}

func (w *Writer) writeUvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.write(buf[:binary.PutUvarint(buf[:], v)])
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
	w.writeUvarint(uint64(rlen))
	w.writeUvarint(uint64(dst))
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
	w.scratch = w.scratch[:0]
	var buf [binary.MaxVarintLen64]byte
	w.scratch = append(w.scratch, buf[:binary.PutUvarint(buf[:], uint64(v))]...)
	w.scratch = append(w.scratch, buf[:binary.PutUvarint(buf[:], uint64(len(neighbors)))]...)
	for _, u := range neighbors {
		w.scratch = append(w.scratch, buf[:binary.PutUvarint(buf[:], uint64(u))]...)
	}
	for _, wt := range weights {
		w.scratch = binary.LittleEndian.AppendUint32(w.scratch, math.Float32bits(wt))
	}
	if len(w.scratch) > MaxRecordBytes {
		return fmt.Errorf("ooc: edge record of %d bytes exceeds MaxRecordBytes", len(w.scratch))
	}
	w.writeUvarint(uint64(len(w.scratch)))
	w.write(w.scratch)
	w.records++
	return w.err
}

// Records returns the number of records appended so far.
func (w *Writer) Records() int64 { return w.records }

// Bytes returns the encoded bytes written so far (header + records; the
// end marker, count and trailer are added by Finish).
func (w *Writer) Bytes() int64 { return w.bytes }

// Path returns the file path for file-backed writers, else "".
func (w *Writer) Path() string { return w.path }

// Finish writes the end marker, record count and CRC trailer, flushes, and
// closes the underlying file if any. It returns the total encoded size.
func (w *Writer) Finish() (int64, error) {
	w.writeUvarint(0)
	w.writeUvarint(uint64(w.records))
	crc := w.crc // trailer is not part of its own checksum
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint64(tr[:], crc)
	if w.err == nil {
		if _, err := w.w.Write(tr[:]); err != nil {
			w.err = err
		} else {
			w.bytes += trailerLen
		}
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.f != nil {
		if cerr := w.f.Close(); w.err == nil {
			w.err = cerr
		}
		w.f = nil
	}
	return w.bytes, w.err
}

// Abort closes and removes the file without writing a trailer.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
		os.Remove(w.path)
	}
}

// Reader streams records from a partition file, verifying the record count
// and CRC trailer when the end marker is reached. Decoded slices alias
// internal buffers that are reused by the next call.
type Reader struct {
	f        *os.File
	r        *bufio.Reader
	crc      uint64
	kind     byte
	weighted bool
	records  int64
	buf      []byte
	nbrs     []graph.VertexID
	wts      []float32
	done     bool
}

// Open opens a partition file and parses its header.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.f = f
	return r, nil
}

// NewReader starts decoding a partition stream from an arbitrary io.Reader.
func NewReader(rd io.Reader) (*Reader, error) {
	r := &Reader{r: bufio.NewReaderSize(rd, 1<<20)}
	var hdr [headerLen]byte
	if err := r.readFull(hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != partMagic0 || hdr[1] != partMagic1 {
		return nil, corrupt("bad magic %q", hdr[:2])
	}
	if hdr[2] != Version {
		return nil, fmt.Errorf("ooc: version %d: %w", hdr[2], ErrVersion)
	}
	r.kind = hdr[3]
	if r.kind != KindEdges && r.kind != KindMessages {
		return nil, corrupt("unknown partition kind %d", r.kind)
	}
	if hdr[4]&^flagWeighted != 0 {
		return nil, corrupt("unknown flags %#x", hdr[4])
	}
	r.weighted = hdr[4]&flagWeighted != 0
	return r, nil
}

// Kind returns the partition kind (KindEdges or KindMessages).
func (r *Reader) Kind() byte { return r.kind }

// Weighted reports whether edge records carry weights.
func (r *Reader) Weighted() bool { return r.weighted }

// Records returns the number of records decoded so far.
func (r *Reader) Records() int64 { return r.records }

// Close closes the underlying file, if any.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

func (r *Reader) readFull(b []byte) error {
	if _, err := io.ReadFull(r.r, b); err != nil {
		return corrupt("truncated (%v)", err)
	}
	r.crc = crc64.Update(r.crc, crcTable, b)
	return nil
}

func (r *Reader) readUvarint(what string) (uint64, error) {
	var v uint64
	var n int
	for shift := uint(0); ; shift += 7 {
		if n == binary.MaxVarintLen64 {
			return 0, corrupt("%s varint too long", what)
		}
		b, err := r.r.ReadByte()
		if err != nil {
			return 0, corrupt("truncated %s (%v)", what, err)
		}
		var one [1]byte
		one[0] = b
		r.crc = crc64.Update(r.crc, crcTable, one[:])
		n++
		if shift == 63 && b > 1 {
			return 0, corrupt("%s varint overflows uint64", what)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	if n != uvarintLen(v) {
		return 0, corrupt("non-minimal %s varint", what)
	}
	return v, nil
}

// next reads the next record body into r.buf, or returns io.EOF after
// verifying the end marker, count and trailer.
func (r *Reader) next() error {
	if r.done {
		return io.EOF
	}
	rlen, err := r.readUvarint("record length")
	if err != nil {
		return err
	}
	if rlen == 0 {
		cnt, err := r.readUvarint("record count")
		if err != nil {
			return err
		}
		if cnt != uint64(r.records) {
			return corrupt("record count %d, decoded %d", cnt, r.records)
		}
		want := r.crc
		var tr [trailerLen]byte
		if _, err := io.ReadFull(r.r, tr[:]); err != nil {
			return corrupt("truncated trailer (%v)", err)
		}
		if got := binary.LittleEndian.Uint64(tr[:]); got != want {
			return corrupt("checksum mismatch: file %#x, computed %#x", got, want)
		}
		if _, err := r.r.ReadByte(); err != io.EOF {
			return corrupt("trailing bytes after trailer")
		}
		r.done = true
		return io.EOF
	}
	if rlen > MaxRecordBytes {
		return corrupt("record of %d bytes exceeds MaxRecordBytes", rlen)
	}
	if uint64(cap(r.buf)) < rlen {
		r.buf = make([]byte, rlen)
	}
	r.buf = r.buf[:rlen]
	if err := r.readFull(r.buf); err != nil {
		return err
	}
	r.records++
	return nil
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
	dst, rest, err := bufUvarint(r.buf, "message destination")
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
	v64, rest, err := bufUvarint(r.buf, "edge vertex")
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
	if cap(r.nbrs) < deg {
		r.nbrs = make([]graph.VertexID, deg)
	}
	r.nbrs = r.nbrs[:deg]
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
		if cap(r.wts) < deg {
			r.wts = make([]float32, deg)
		}
		r.wts = r.wts[:deg]
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
