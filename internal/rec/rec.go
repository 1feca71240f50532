// Package rec is the one binary codec behind the wire frames
// (internal/wire), the partition files (internal/ooc), the checkpoint
// container and its sections (internal/ckpt) and the graph dumps
// (internal/graph): the CRC-64/ECMA checksum, canonical uvarints, a
// sticky-error little-endian Cursor over an in-memory image, a stream
// Writer and Reader that fold the checksum over the bytes they move, and
// the root ErrCorrupt, which every format's sentinel (made by Sentinel)
// wraps. Each format keeps its own byte layout.
package rec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math/bits"
)

// ErrCorrupt is wrapped by every decode error of every format.
var ErrCorrupt = errors.New("corrupt input")

type sentinel struct{ msg string }

func (s *sentinel) Error() string { return s.msg }
func (s *sentinel) Unwrap() error { return ErrCorrupt }

// Sentinel returns a format's corruption sentinel: an error reading msg
// that wraps ErrCorrupt.
func Sentinel(msg string) error { return &sentinel{msg} }

// Errorf returns a decode error wrapping sentinel: the formatted detail,
// then the sentinel's message.
func Errorf(sentinel error, format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), sentinel)
}

// The CRC runs slicing-by-8 (crcTables[k] advances a byte through k more
// zero bytes) on four interleaved lanes of laneLen bytes, so four
// independent table chains share the CPU instead of one. Lanes b-d start
// from a zero register, and since the CRC register is linear over GF(2)
// the four fold into the register after the whole block as
// a·x^(8·3L) ⊕ b·x^(8·2L) ⊕ c·x^(8·L) ⊕ d mod P, L = laneLen.
const (
	laneLen  = 4 << 10
	blockLen = 4 * laneLen
)

var (
	crcTables [8]crc64.Table
	// laneShift[i] is x^(8·(3-i)·laneLen) mod P: lane i's multiplier.
	laneShift [3]uint64
)

func init() {
	crcTables[0] = *crc64.MakeTable(crc64.ECMA)
	for i := range 256 {
		for k := 1; k < 8; k++ {
			c := crcTables[k-1][i]
			crcTables[k][i] = crcTables[0][byte(c)] ^ c>>8
		}
	}
	// The raw register after n zero bytes from x^0 (bit 63, the reflected
	// form) is x^(8n) mod P.
	x := uint64(1) << 63
	for i := 2; i >= 0; i-- {
		for range laneLen {
			x = crcTables[0][byte(x)] ^ x>>8
		}
		laneShift[i] = x
	}
}

// CRC folds p into a running CRC-64/ECMA; a checksum starts from 0. It
// equals hash/crc64's Update with the ECMA table, bit for bit. Spans of at
// least blockLen bytes take the four lanes, the rest one.
func CRC(crc uint64, p []byte) uint64 {
	t := &crcTables
	crc = ^crc
	for ; len(p) >= blockLen; p = p[blockLen:] {
		crc = crcBlock(t, crc, (*[blockLen]byte)(p))
	}
	for ; len(p) >= 8; p = p[8:] {
		crc = slice8(t, crc^binary.LittleEndian.Uint64(p))
	}
	for _, c := range p {
		crc = t[0][byte(crc)^c] ^ crc>>8
	}
	return ^crc
}

// slice8 advances a register whose low eight bytes were just xored with
// the next eight input bytes past them.
func slice8(t *[8]crc64.Table, c uint64) uint64 {
	return t[7][byte(c)] ^ t[6][byte(c>>8)] ^ t[5][byte(c>>16)] ^ t[4][byte(c>>24)] ^
		t[3][byte(c>>32)] ^ t[2][byte(c>>40)] ^ t[1][byte(c>>48)] ^ t[0][byte(c>>56)]
}

// crcBlock advances the raw register a over one block as four lanes.
func crcBlock(t *[8]crc64.Table, a uint64, p *[blockLen]byte) uint64 {
	var b, c, d uint64
	for i := 0; i < laneLen; i += 8 {
		a = slice8(t, a^binary.LittleEndian.Uint64(p[i:]))
		b = slice8(t, b^binary.LittleEndian.Uint64(p[laneLen+i:]))
		c = slice8(t, c^binary.LittleEndian.Uint64(p[2*laneLen+i:]))
		d = slice8(t, d^binary.LittleEndian.Uint64(p[3*laneLen+i:]))
	}
	return mulmod(a, laneShift[0]) ^ mulmod(b, laneShift[1]) ^ mulmod(c, laneShift[2]) ^ d
}

// mulmod returns a·b mod P for registers in the CRC's reflected form, where
// bit 63 is the coefficient of x^0.
func mulmod(a, b uint64) uint64 {
	var p uint64
	for i := 63; i >= 0; i-- {
		p ^= b & -(a >> i & 1)
		b = b>>1 ^ crc64.ECMA&-(b&1)
	}
	return p
}

// TrailerLen is the size of the little-endian CRC-64 trailer that ends
// every checksummed image.
const TrailerLen = 8

// Checked verifies the CRC-64 trailer that ends image and returns the bytes
// it covers.
func Checked(image []byte, sentinel error) ([]byte, error) {
	if len(image) < TrailerLen {
		return nil, Errorf(sentinel, "%d bytes hold no checksum trailer", len(image))
	}
	body := image[:len(image)-TrailerLen]
	if got, want := CRC(0, body), binary.LittleEndian.Uint64(image[len(body):]); got != want {
		return nil, Errorf(sentinel, "checksum mismatch (got %016x want %016x)", got, want)
	}
	return body, nil
}

// UvarintLen returns the length of v's canonical uvarint encoding.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Cursor reads little-endian fields in order from an in-memory image. The
// first read that does not fit stops it: that read and every later one
// return zero values, and Err reports the failure, wrapping the sentinel
// the Cursor was made with. Reads make no calls on their fast path, so the
// fixed-size ones inline into the decoders' loops.
type Cursor struct {
	b        []byte // the image
	off      int    // the bytes read
	bad      int    // 1 + the offset of the first read that did not fit, or 0
	err      error
	sentinel error
}

// NewCursor returns a Cursor at the start of image.
func NewCursor(image []byte, sentinel error) Cursor {
	return Cursor{b: image, sentinel: sentinel}
}

// stop records a read at the current offset that did not fit and consumes
// the rest of the image.
func (c *Cursor) stop() {
	if c.bad == 0 {
		c.bad = c.off + 1
	}
	c.off = len(c.b)
}

// Fail stops c with a decode error for the formatted detail, unless it has
// already stopped, and returns c's error.
func (c *Cursor) Fail(format string, args ...any) error {
	if c.bad == 0 {
		c.err = Errorf(c.sentinel, format, args...)
		c.stop()
	}
	return c.Err()
}

// Bytes returns the next n bytes, aliasing the image, or nil when fewer
// remain.
func (c *Cursor) Bytes(n uint64) []byte {
	if n > uint64(len(c.b)-c.off) {
		c.stop()
		return nil
	}
	c.off += int(n)
	return c.b[c.off-int(n) : c.off : c.off]
}

var zeros [8]byte

// word returns the next n <= 8 bytes, or 8 zeros when fewer remain.
func (c *Cursor) word(n uint64) []byte {
	if b := c.Bytes(n); b != nil {
		return b
	}
	return zeros[:]
}

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 { return binary.LittleEndian.Uint16(c.word(2)) }

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 { return binary.LittleEndian.Uint32(c.word(4)) }

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 { return binary.LittleEndian.Uint64(c.word(8)) }

// Uvarint returns the canonical uvarint that starts b and its length, or
// n = 0 when b is truncated, the value overflows 64 bits or the encoding is
// not minimal (ends in a zero byte): every value has one accepted
// encoding, so a decoded image re-encodes to the same bytes.
func Uvarint(b []byte) (v uint64, n int) {
	var s uint
	for i, c := range b {
		if c < 0x80 {
			if i > 0 && c == 0 || i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, 0
			}
			return v | uint64(c)<<s, i + 1
		}
		if i == binary.MaxVarintLen64-1 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// Uvarint reads a canonical uvarint.
func (c *Cursor) Uvarint() uint64 {
	v, n := Uvarint(c.b[c.off:])
	if n == 0 {
		c.stop()
	}
	c.off += n
	return v
}

// Len returns the number of bytes not yet read: 0 once c has failed.
func (c *Cursor) Len() int { return len(c.b) - c.off }

// Err returns the failure that stopped c, or nil.
func (c *Cursor) Err() error {
	if c.bad == 0 {
		return nil
	}
	return c.failure()
}

// failure returns c's error, made for the first read that did not fit
// unless Fail made it.
func (c *Cursor) failure() error {
	if c.err == nil {
		c.err = Errorf(c.sentinel, "truncated or malformed field at offset %d of %d", c.bad-1, len(c.b))
	}
	return c.err
}

// Done returns c's failure, or a decode error when bytes remain unread.
func (c *Cursor) Done() error {
	if c.off < len(c.b) {
		return c.Fail("%d trailing bytes", len(c.b)-c.off)
	}
	return c.Err()
}

// Writer encodes a stream through a buffer it keeps across streams, folding
// every byte it writes out into a running CRC-64, so Finish appends the
// checksum trailer without reading anything back. The first write error
// sticks; every later write only updates the checksum.
type Writer struct {
	dst io.Writer
	buf []byte // encoded bytes not yet written out
	crc uint64 // CRC of the bytes written out
	n   int64  // bytes written out
	err error
	tmp [8]byte // one fixed-size field's encoding
}

// Reset starts a stream on dst, keeping w's buffer, or allocating one of
// size bytes when w has none.
func (w *Writer) Reset(dst io.Writer, size int) {
	buf := w.buf[:0]
	if buf == nil {
		buf = make([]byte, 0, size)
	}
	*w = Writer{dst: dst, buf: buf}
}

// out folds p into the checksum and writes it to dst.
func (w *Writer) out(p []byte) {
	w.crc = CRC(w.crc, p)
	if w.err == nil {
		_, w.err = w.dst.Write(p)
		w.n += int64(len(p))
	}
}

func (w *Writer) flush() {
	if len(w.buf) > 0 {
		w.out(w.buf)
		w.buf = w.buf[:0]
	}
}

// room flushes the buffer unless n more bytes fit in it.
func (w *Writer) room(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
}

// Bytes writes p through the buffer.
func (w *Writer) Bytes(p []byte) {
	for len(p) > 0 {
		w.room(1)
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf, p = w.buf[:len(w.buf)+n], p[n:]
	}
}

// Span writes p after the buffered bytes as it is, uncopied: the form for
// a section much longer than the buffer.
func (w *Writer) Span(p []byte) {
	w.flush()
	if len(p) > 0 {
		w.out(p)
	}
}

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) { w.Bytes(binary.LittleEndian.AppendUint16(w.tmp[:0], v)) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.Bytes(binary.LittleEndian.AppendUint32(w.tmp[:0], v)) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.Bytes(binary.LittleEndian.AppendUint64(w.tmp[:0], v)) }

// Uvarint writes v's canonical uvarint.
func (w *Writer) Uvarint(v uint64) {
	w.room(binary.MaxVarintLen64)
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Record writes one record framed as uvarint(len) and len bytes, whose
// body is uvarint(key) and then p. A record that fits in the buffer takes
// one room check.
func (w *Writer) Record(key uint64, p []byte) {
	body := UvarintLen(key) + len(p)
	if n := UvarintLen(uint64(body)) + body; n > cap(w.buf)-len(w.buf) {
		if w.flush(); n > cap(w.buf) {
			w.Uvarint(uint64(body))
			w.Uvarint(key)
			w.Bytes(p)
			return
		}
	}
	w.buf = append(binary.AppendUvarint(binary.AppendUvarint(w.buf, uint64(body)), key), p...)
}

// Len returns the bytes encoded so far, buffered ones included.
func (w *Writer) Len() int64 { return w.n + int64(len(w.buf)) }

// Err returns the first write error, or nil.
func (w *Writer) Err() error { return w.err }

// Finish writes out the buffer and then the CRC-64 trailer over everything
// before it, and returns the stream's length and the first write error.
func (w *Writer) Finish() (int64, error) {
	w.flush()
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.crc)
	w.flush()
	return w.n, w.err
}

// Reader decodes a stream in place from a buffer it keeps across streams,
// folding each consumed span into a running CRC-64 as it refills, so
// Trailer verifies the checksum without a second pass. Returned slices
// alias the buffer until the next call.
type Reader struct {
	src      io.Reader
	buf      []byte // the buffer, grown only for a span longer than it
	pos, end int    // buf[pos:end] is read but not yet consumed
	off      int64  // stream offset of buf[0]
	srcErr   error  // the source's first error; io.EOF at its end
	crc      uint64 // CRC of the stream before buf[0]
	sentinel error
}

// Reset starts decoding src, keeping r's buffer, or allocating one of size
// (at least binary.MaxVarintLen64) bytes when r has none, and reporting
// malformed input through sentinel.
func (r *Reader) Reset(src io.Reader, size int, sentinel error) {
	buf := r.buf
	if buf == nil {
		buf = make([]byte, size)
	}
	*r = Reader{src: src, buf: buf, sentinel: sentinel}
}

// fill makes n bytes available at buf[pos:] and reports whether the stream
// held them.
func (r *Reader) fill(n int) bool { return r.end-r.pos >= n || r.refill(n) }

// refill folds the consumed span into the checksum, slides the unconsumed
// tail to the front of the buffer and reads until n bytes are available or
// the stream ends.
func (r *Reader) refill(n int) bool {
	r.crc = CRC(r.crc, r.buf[:r.pos])
	r.off += int64(r.pos)
	r.end, r.pos = copy(r.buf, r.buf[r.pos:r.end]), 0
	if n > len(r.buf) {
		r.buf = append(r.buf, make([]byte, n-len(r.buf))...)
	}
	for r.end < n && r.srcErr == nil {
		var k int
		k, r.srcErr = r.src.Read(r.buf[r.end:])
		r.end += k
	}
	return r.end >= n
}

// Offset returns the number of bytes consumed: at the end of a verified
// stream, its length.
func (r *Reader) Offset() int64 { return r.off + int64(r.pos) }

// Buffered returns the bytes read but not yet consumed, for a decoder that
// parses the whole records among them in place and then Skips them.
func (r *Reader) Buffered() []byte { return r.buf[r.pos:r.end] }

// Skip consumes the next n <= len(Buffered()) bytes.
func (r *Reader) Skip(n int) { r.pos += n }

// Bytes returns the next n bytes.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if !r.fill(n) {
		return nil, Errorf(r.sentinel, "truncated: %d bytes wanted at offset %d (%v)", n, r.Offset(), r.srcErr)
	}
	r.pos += n
	return r.buf[r.pos-n : r.pos], nil
}

// Uvarint reads a canonical uvarint.
func (r *Reader) Uvarint() (uint64, error) {
	r.fill(binary.MaxVarintLen64) // short only at the end of the stream
	v, n := Uvarint(r.buf[r.pos:r.end])
	if n == 0 {
		return 0, Errorf(r.sentinel, "bad uvarint at offset %d", r.Offset())
	}
	r.pos += n
	return v, nil
}

// Record reads a record framed as uvarint(len) and len bytes: its body, or
// nil for the zero length that ends a record sequence. A length beyond max
// is malformed, so a hostile prefix cannot drive a larger allocation.
func (r *Reader) Record(max int) ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	if n > uint64(max) {
		return nil, Errorf(r.sentinel, "record of %d bytes exceeds %d", n, max)
	}
	return r.Bytes(int(n))
}

// Trailer verifies that the CRC-64 of everything consumed so far comes
// next and that the stream ends after it.
func (r *Reader) Trailer() error {
	want := CRC(r.crc, r.buf[:r.pos])
	b, err := r.Bytes(TrailerLen)
	if err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint64(b); got != want {
		return Errorf(r.sentinel, "checksum mismatch: stream %#x, computed %#x", got, want)
	}
	if r.fill(1) || r.srcErr != io.EOF {
		return Errorf(r.sentinel, "trailing bytes after the checksum")
	}
	return nil
}
