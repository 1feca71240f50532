package rec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"
)

var errTest = Sentinel("rec test: corrupt")

func TestSentinelWrapsErrCorrupt(t *testing.T) {
	err := Errorf(errTest, "detail %d", 7)
	if !errors.Is(err, errTest) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%v does not wrap both sentinels", err)
	}
	if err.Error() != "detail 7: rec test: corrupt" {
		t.Fatalf("message %q", err.Error())
	}
	if errors.Is(Sentinel("rec test: corrupt"), errTest) {
		t.Fatal("two sentinels with one message match each other")
	}
}

func TestCRCIsECMA(t *testing.T) {
	p := []byte("the quick brown fox")
	want := crc64.Checksum(p, crc64.MakeTable(crc64.ECMA))
	if got := CRC(CRC(0, p[:7]), p[7:]); got != want {
		t.Fatalf("CRC folded over two spans %#x, want %#x", got, want)
	}
	image := binary.LittleEndian.AppendUint64(append([]byte(nil), p...), want)
	if body, err := Checked(image, errTest); err != nil || !bytes.Equal(body, p) {
		t.Fatalf("Checked: %q, %v", body, err)
	}
	for i := range image {
		bad := bytes.Clone(image)
		bad[i] ^= 1
		if _, err := Checked(bad, errTest); !errors.Is(err, errTest) {
			t.Fatalf("flip at %d: %v", i, err)
		}
	}
	if _, err := Checked(image[:7], errTest); !errors.Is(err, errTest) {
		t.Fatalf("7-byte image: %v", err)
	}
}

func TestUvarintCanonical(t *testing.T) {
	decode := func(b []byte) (uint64, int, error) {
		c := NewCursor(b, errTest)
		if v := c.Uvarint(); c.Err() == nil {
			return v, len(b) - c.Len(), nil
		}
		return 0, 0, c.Err()
	}
	for _, v := range []uint64{0, 1, 127, 128, 300, 16383, 16384, 1<<32 - 1, 1 << 56, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		if UvarintLen(v) != len(enc) {
			t.Fatalf("UvarintLen(%d) = %d, encoding is %d bytes", v, UvarintLen(v), len(enc))
		}
		if got, n, err := decode(append(enc, 0xff)); got != v || n != len(enc) || err != nil {
			t.Fatalf("Uvarint(%x) = %d, %d, %v", enc, got, n, err)
		}
		if _, _, err := decode(enc[:len(enc)-1]); !errors.Is(err, errTest) {
			t.Fatalf("truncated %x: %v", enc, err)
		}
	}
	for _, bad := range [][]byte{
		{0x80, 0x00},       // zero in two bytes
		{0xff, 0x80, 0x00}, // 127 in three bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // overflows 64 bits
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // 11 bytes
	} {
		if v, _, err := decode(bad); !errors.Is(err, errTest) {
			t.Fatalf("Uvarint(%x) accepted %d", bad, v)
		}
	}
	// Against the standard decoder plus the minimality rule: every 1- and
	// 2-byte input, and random longer ones.
	rng := rand.New(rand.NewSource(1))
	for i := range 1<<16 + 20000 {
		b := []byte{byte(i), byte(i >> 8)}
		if i >= 1<<16 {
			b = make([]byte, 1+rng.Intn(11))
			for j := range b {
				b[j] = byte(rng.Intn(256)) | 0x80
			}
			b[len(b)-1] = byte(rng.Intn(4))
		}
		want, wn := binary.Uvarint(b)
		if wn <= 0 || wn != UvarintLen(want) {
			want, wn = 0, 0
		}
		if v, n, _ := decode(b); v != want || n != wn {
			t.Fatalf("Uvarint(%x) = %d, %d bytes; want %d, %d", b, v, n, want, wn)
		}
	}
}

func TestCursorStopsAtFirstFailure(t *testing.T) {
	image := binary.LittleEndian.AppendUint32([]byte{0x2c, 0xac, 0x02}, 0xdeadbeef)
	c := NewCursor(image, errTest)
	if a, b, w := c.Uvarint(), c.Uvarint(), c.U32(); a != 44 || b != 300 || w != 0xdeadbeef || c.Err() != nil {
		t.Fatalf("read %d %d %#x, %v", a, b, w, c.Err())
	}
	if c.Done() != nil {
		t.Fatalf("Done at the end: %v", c.Done())
	}
	c = NewCursor(image, errTest)
	if c.U64(); !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("U64 of a 7-byte image: %v", c.Err())
	}
	first := c.Err()
	if c.U16() != 0 || c.Uvarint() != 0 || c.Bytes(1) != nil || c.Len() != 0 || c.Fail("later") != first {
		t.Fatal("a stopped cursor read on or replaced its error")
	}
	c = NewCursor(image, errTest)
	c.U16()
	if err := c.Done(); !errors.Is(err, errTest) {
		t.Fatalf("Done with 5 bytes left: %v", err)
	}
	c = NewCursor(image[:3], errTest)
	c.U32()
	if err := c.Done(); !errors.Is(err, errTest) {
		t.Fatalf("Done after a short read: %v", err)
	}
	c = NewCursor([]byte{1, 2}, errTest)
	if c.Bytes(math.MaxUint64) != nil || c.Err() == nil {
		t.Fatal("a hostile length was taken")
	}
}

// writeStream encodes a stream of every field kind, bytes longer than the
// writer's buffer and a span, and returns its bytes.
func writeStream(t *testing.T, w *Writer, span []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	w.Reset(&out, 16)
	w.Bytes(bytes.Repeat([]byte("h"), 30))
	w.U16(0xbeef)
	w.U32(7)
	w.Uvarint(uint64(len(span)))
	w.Span(span)
	w.U64(math.MaxUint64)
	w.Uvarint(0)
	if w.Len() != int64(30+2+4+2+len(span)+8+1) {
		t.Fatalf("Len %d before Finish", w.Len())
	}
	n, err := w.Finish()
	if err != nil || n != int64(out.Len()) {
		t.Fatalf("Finish: %d, %v; wrote %d", n, err, out.Len())
	}
	return out.Bytes()
}

func TestWriterReaderRoundTrip(t *testing.T) {
	span := bytes.Repeat([]byte{0xab}, 200)
	var w Writer
	data := writeStream(t, &w, span)
	want := append(bytes.Repeat([]byte("h"), 30), 0xef, 0xbe, 0x07, 0x00, 0x00, 0x00, 0xc8, 0x01)
	want = append(want, span...)
	want = append(want, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0)
	want = binary.LittleEndian.AppendUint64(want, crc64.Checksum(want, crc64.MakeTable(crc64.ECMA)))
	if !bytes.Equal(data, want) {
		t.Fatalf("stream\n got %x\nwant %x", data, want)
	}
	if again := writeStream(t, &w, span); !bytes.Equal(again, data) {
		t.Fatal("a reused Writer encoded other bytes")
	}
	// read decodes the stream's fields one byte per source Read, returning
	// the record body.
	read := func(data []byte) ([]byte, error) {
		var r Reader
		r.Reset(iotest.OneByteReader(bytes.NewReader(data)), binary.MaxVarintLen64, errTest)
		if _, err := r.Bytes(36); err != nil {
			return nil, err
		}
		body, err := r.Record(len(span))
		if err != nil {
			return nil, err
		}
		body = bytes.Clone(body)
		if _, err := r.Bytes(8); err != nil {
			return nil, err
		}
		if end, err := r.Record(len(span)); end != nil || err != nil {
			return nil, Errorf(errTest, "no end marker (%v)", err)
		}
		if err := r.Trailer(); err != nil {
			return nil, err
		}
		if r.Offset() != int64(len(data)) {
			t.Fatalf("Offset %d of %d", r.Offset(), len(data))
		}
		return body, nil
	}
	if body, err := read(data); err != nil || !bytes.Equal(body, span) {
		t.Fatalf("read back %x, %v", body, err)
	}
	for i := range data {
		if _, err := read(data[:i]); !errors.Is(err, errTest) {
			t.Fatalf("truncation at %d: %v", i, err)
		}
		bad := bytes.Clone(data)
		bad[i] ^= 0x10
		if _, err := read(bad); !errors.Is(err, errTest) {
			t.Fatalf("flip at %d: %v", i, err)
		}
	}
	if _, err := read(append(bytes.Clone(data), 0)); !errors.Is(err, errTest) {
		t.Fatalf("trailing byte: %v", err)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n++; f.n > 1 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

func TestWriterErrorSticks(t *testing.T) {
	var w Writer
	w.Reset(&failWriter{}, 8)
	w.U64(1)
	w.U64(2)
	w.U64(3)
	if _, err := w.Finish(); err != io.ErrShortWrite || w.Err() != io.ErrShortWrite {
		t.Fatalf("Finish after a failed write: %v", err)
	}
}
