package rec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math/rand"
	"testing"
)

// decodeStream reads data as a record stream shaped like a partition file:
// a 1-byte header, uvarint-framed records of at most 64 bytes, the zero
// end marker, the record count and the CRC-64 trailer.
func decodeStream(data []byte) (hdr []byte, records [][]byte, err error) {
	var r Reader
	r.Reset(bytes.NewReader(data), binary.MaxVarintLen64, errTest)
	if hdr, err = r.Bytes(1); err != nil {
		return nil, nil, err
	}
	hdr = bytes.Clone(hdr)
	for {
		body, err := r.Record(64)
		if err != nil {
			return nil, nil, err
		}
		if body == nil {
			break
		}
		records = append(records, bytes.Clone(body))
	}
	if n, err := r.Uvarint(); err != nil || n != uint64(len(records)) {
		return nil, nil, Errorf(errTest, "record count %d of %d (%v)", n, len(records), err)
	}
	return hdr, records, r.Trailer()
}

// FuzzDecode drives the Cursor and the stream Reader over arbitrary bytes:
// neither may panic, every error must wrap the caller's sentinel and
// ErrCorrupt, and a stream the Reader accepts must re-encode through the
// Writer to exactly its bytes.
func FuzzDecode(f *testing.F) {
	var w Writer
	var out bytes.Buffer
	w.Reset(&out, 16)
	w.Bytes([]byte{'P'})
	for _, rec := range [][]byte{[]byte("alpha"), bytes.Repeat([]byte{7}, 40)} {
		w.Uvarint(uint64(len(rec)))
		w.Bytes(rec)
	}
	w.Uvarint(0)
	w.Uvarint(2)
	w.Finish()
	valid := out.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add([]byte{'P', 0x80, 0x00})                   // non-canonical record length
	f.Add([]byte{'P', 0xff, 0xff, 0xff, 0xff, 0x0f}) // record beyond the limit
	f.Add([]byte{3, 0x2c, 0xac, 0x02, 0xef, 0xbe, 0xad, 0xde, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(err error) {
			t.Helper()
			if err != nil && (!errors.Is(err, errTest) || !errors.Is(err, ErrCorrupt)) {
				t.Fatalf("untyped error %v", err)
			}
		}
		// The cursor reads the fields the bytes themselves choose.
		c := NewCursor(data, errTest)
		for c.Err() == nil && c.Len() > 0 {
			switch c.Bytes(1)[0] % 6 {
			case 0:
				c.U16()
			case 1:
				c.U32()
			case 2:
				c.U64()
			case 3:
				c.Uvarint()
			case 4:
				c.Bytes(c.Uvarint())
			case 5:
				c.Done()
			}
		}
		typed(c.Err())
		_, err := Checked(data, errTest)
		typed(err)

		hdr, records, err := decodeStream(data)
		if typed(err); err != nil {
			return
		}
		var re bytes.Buffer
		w.Reset(&re, 16)
		w.Bytes(hdr)
		for _, rec := range records {
			w.Uvarint(uint64(len(rec)))
			w.Bytes(rec)
		}
		w.Uvarint(0)
		w.Uvarint(uint64(len(records)))
		if _, err := w.Finish(); err != nil || !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("accepted stream is not canonical (%v):\n in %x\nout %x", err, data, re.Bytes())
		}
	})
}

// FuzzCRC checks CRC against hash/crc64 over arbitrary bytes, from an
// arbitrary running CRC, cut into three chained calls at arbitrary points.
func FuzzCRC(f *testing.F) {
	long := make([]byte, 2*blockLen+17)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(uint64(0), []byte("the quick brown fox"), uint32(7), uint32(3))
	f.Add(^uint64(0), long, uint32(laneLen+1), uint32(blockLen-1))
	f.Add(uint64(0x1234), long[:blockLen], uint32(0), uint32(blockLen))
	ecma := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, crc uint64, data []byte, cut1, cut2 uint32) {
		a := min(int(cut1), len(data))
		b := min(a+int(cut2), len(data))
		got := CRC(CRC(CRC(crc, data[:a]), data[a:b]), data[b:])
		if want := crc64.Update(crc, ecma, data); got != want {
			t.Fatalf("CRC over %d bytes cut at %d and %d = %#x, want %#x", len(data), a, b, got, want)
		}
	})
}
