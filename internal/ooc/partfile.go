// Package ooc implements true out-of-core execution for the vertex-centric
// engine, following GraphD ("Efficient Processing of Very Large Graphs in a
// Small Cluster") and PartitionedVC: edges and oversized inboxes live in
// sequentially-read partition files on disk, and supersteps stream them
// through a bounded memory window — a partition's inbox, then the adjacency
// of only the vertices it names — while only O(V) vertex state stays
// resident. The package is payload-agnostic: messages are opaque []byte
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
// is set; an edge file names strictly ascending vertices. All varints are
// canonical (minimal length); decoders reject non-minimal encodings,
// truncation, trailing bytes, out-of-order or out-of-range IDs, count
// mismatches and checksum failures with errors wrapping ErrCorrupt, and
// never panic on hostile input. Allocation during decode is bounded by
// MaxRecordBytes.
//
// The framing, the varints, the checksum and the bounds checks are
// internal/rec's: a Writer encodes through a rec.Writer with a buffer of at
// most writeBufLen bytes and a Reader decodes a whole file from a
// rec.Reader with a readBufLen one (Reader.decode tells how), both kept
// across files, and a PartitionedRunner owns one Reader (it reads one file
// at a time) and a free list of Writers, whose buffers it sizes from its
// memory budget.
package ooc

import (
	"encoding/binary"
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

	// readBufLen sizes a Reader's decode buffer and writeBufLen a Writer's
	// encode buffer at most: each refill or flush is one system call and
	// one CRC fold. Decoding needs at least MaxVarintLen64 bytes.
	readBufLen  = 64 << 10
	writeBufLen = 64 << 10
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

// create opens path for writing on w, keeping its buffer, and emits the
// partition header.
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
	w.enc.Record(uint64(dst), payload)
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

// Reader decodes a partition whole: open (or init) parses the header, then
// one ReadEdges or ReadMessages call decodes every record through the
// verified end marker, record count and CRC trailer.
type Reader struct {
	dec      rec.Reader
	f        *os.File
	kind     byte
	weighted bool
}

// open opens a partition file on r, keeping its buffer, and parses its
// header.
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

// init starts decoding src, keeping r's read buffer, and parses the header.
// Every Reader, file-backed or not, starts here.
func (r *Reader) init(src io.Reader) error {
	*r = Reader{dec: r.dec}
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

// Bytes returns the encoded bytes consumed so far: after a successful
// ReadEdges or ReadMessages, the whole stream.
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

// EdgeList is an edge partition decoded whole, in file order: record i is
// vertex Verts[i] with Degs[i] neighbors, the next Degs[i] IDs of Adj and,
// when the partition is weighted, the next Degs[i] weights of Wts.
type EdgeList struct {
	Verts []graph.VertexID
	Degs  []int32
	Adj   []graph.VertexID
	Wts   []float32
}

// ReadEdges decodes an edge partition's records, through its verified end,
// into e, keeping its capacity. The records must name strictly ascending
// vertices, and every vertex and neighbor ID must be below n (<= 1<<32).
func (r *Reader) ReadEdges(e *EdgeList, n uint64) error {
	if r.kind != KindEdges {
		return fmt.Errorf("ooc: ReadEdges on kind-%d partition", r.kind)
	}
	e.Verts, e.Degs, e.Adj, e.Wts = e.Verts[:0], e.Degs[:0], e.Adj[:0], e.Wts[:0]
	return r.decode(e, nil, n, nil)
}

// ReadMessages decodes a message partition's records, through its verified
// end, into ib in file order, keeping its capacity. Every destination must
// be below n (<= 1<<32).
func (r *Reader) ReadMessages(ib *Inbox, n uint64) error {
	if r.kind != KindMessages {
		return fmt.Errorf("ooc: ReadMessages on kind-%d partition", r.kind)
	}
	ib.Reset()
	return r.decode(nil, ib, n, nil)
}

// uvarint decodes a one- or two-byte canonical uvarint (every ID below
// 16384) at b[j:] inline, with one length check and no branch on its
// length; n = 0 leaves the rest, and fewer than two bytes, to rec.Uvarint.
// The caller's offset j, rather than a resliced b, keeps the next offset
// one addition away from the byte just read.
func uvarint(b []byte, j int) (v uint64, n int) {
	if j+1 >= len(b) {
		return 0, 0
	}
	c0, c1 := uint64(b[j]), uint64(b[j+1])
	two := c0 >> 7 // 1 when a second byte follows
	if (c1-1)*two >= 0x7f {
		return 0, 0 // a second byte that is zero or not the last
	}
	return c0&0x7f | c1<<7&-two, int(1 + two)
}

// decodeIDs fills ids with the canonical uvarints below n that start b and
// returns the bytes after them, or ok = false at the first malformed or
// out-of-range one. It is a function of its own so that the loop keeps its
// few values in registers.
func decodeIDs(ids []graph.VertexID, b []byte, n uint64) (rest []byte, ok bool) {
	j := 0
	for i := range ids {
		u, m := uvarint(b, j)
		if m == 0 {
			u, m = rec.Uvarint(b[j:])
		}
		if m == 0 || u >= n {
			return nil, false
		}
		ids[i] = graph.VertexID(u)
		j += m
	}
	return b[j:], true
}

// decode is the one record loop behind ReadEdges (e) and ReadMessages (ib).
// A record that sits whole in the read buffer is framed and decoded there,
// with no call into the rec.Reader; one split across a refill, or one whose
// length prefix is longer than two bytes or malformed, goes through
// rec.Reader.Record. Either way its body gets every check of the format;
// given a bitset want (Window's), an edge record of a vertex outside it has
// only its vertex ID checked and keeps degree 0 in e.
func (r *Reader) decode(e *EdgeList, ib *Inbox, n uint64, want []uint64) error {
	per := uint64(1) // the fewest bytes a neighbor takes: its varint, and its weight
	if r.weighted {
		per = 5
	}
	var records, next uint64 // next: the lowest vertex an edge record may name
	b, k := r.dec.Buffered(), 0
	for {
		var body []byte
		if size, m := uvarint(b, k); m > 0 && size <= uint64(len(b)-k-m) {
			body, k = b[k+m:k+m+int(size)], k+m+int(size)
		} else {
			r.dec.Skip(k)
			var err error
			if body, err = r.dec.Record(MaxRecordBytes); err != nil {
				return err
			}
			b, k = r.dec.Buffered(), 0
		}
		if len(body) == 0 {
			break // the end marker: records are never empty
		}
		records++
		if ib != nil {
			dst, m := uvarint(body, 0)
			if m == 0 {
				dst, m = rec.Uvarint(body)
			}
			if m == 0 || dst >= n {
				return rec.Errorf(ErrCorrupt, "bad destination in message record %d", records)
			}
			ib.Dsts = append(ib.Dsts, graph.VertexID(dst))
			ib.Data = append(ib.Data, body[m:]...)
			ib.Offs = append(ib.Offs, int32(len(ib.Data)))
			continue
		}
		v, m := uvarint(body, 0)
		if m == 0 {
			v, m = rec.Uvarint(body)
		}
		if m == 0 || v < next || v >= n {
			return rec.Errorf(ErrCorrupt, "edge record %d names vertex %d, want one in [%d, %d)", records, v, next, n)
		}
		next = v + 1
		deg := uint64(0) // a vertex outside want keeps its neighbors encoded
		if want == nil || v>>6 < uint64(len(want)) && want[v>>6]&(1<<(v&63)) != 0 {
			d, m2 := uvarint(body, m)
			if m2 == 0 {
				d, m2 = rec.Uvarint(body[m:])
			}
			nbrs := body[m+m2:]
			// Every neighbor costs at least per bytes, so the rest of the
			// body bounds the degree: a hostile count cannot force a larger
			// allocation than the record it arrived in. The first bound
			// keeps the product from wrapping.
			if m2 == 0 || d > uint64(len(nbrs)) || d*per > uint64(len(nbrs)) {
				return rec.Errorf(ErrCorrupt, "bad degree of vertex %d in edge record %d", v, records)
			}
			deg = d
			at := len(e.Adj)
			e.Adj = slices.Grow(e.Adj, int(deg))[:at+int(deg)]
			wts, ok := decodeIDs(e.Adj[at:], nbrs, n)
			if !ok {
				return rec.Errorf(ErrCorrupt, "bad neighbor of vertex %d in edge record %d", v, records)
			}
			if w := (per - 1) * deg; uint64(len(wts)) != w {
				return rec.Errorf(ErrCorrupt, "%d bytes after the neighbors of vertex %d, want %d", len(wts), v, w)
			}
			for ; len(wts) > 0; wts = wts[4:] {
				e.Wts = append(e.Wts, math.Float32frombits(binary.LittleEndian.Uint32(wts)))
			}
		}
		e.Verts = append(e.Verts, graph.VertexID(v))
		e.Degs = append(e.Degs, int32(deg))
	}
	r.dec.Skip(k)
	cnt, err := r.dec.Uvarint()
	if err != nil {
		return err
	}
	if cnt != records {
		return rec.Errorf(ErrCorrupt, "record count %d, decoded %d", cnt, records)
	}
	return r.dec.Trailer()
}
