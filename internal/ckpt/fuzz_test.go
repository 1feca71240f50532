package ckpt

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode: it must never panic, and any
// snapshot it accepts must re-encode to exactly the input (so corrupt bytes
// can never round-trip through a "successful" decode).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VCKP"))
	f.Add(encode(sample()))
	s := &Snapshot{Step: 1}
	s.Add("", nil)
	f.Add(encode(s))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encode(got), data) {
			t.Fatalf("accepted bytes do not round-trip")
		}
	})
}

// FuzzCorruption encodes a snapshot derived from the fuzz input, corrupts
// one byte at a fuzz-chosen position, and asserts the checksum catches it.
func FuzzCorruption(f *testing.F) {
	f.Add(3, []byte("state"), []byte("inbox"), 10, byte(1))
	f.Add(900000, []byte{}, bytes.Repeat([]byte{7}, 300), 0, byte(0xFF))
	f.Fuzz(func(t *testing.T, step int, sec1, sec2 []byte, pos int, flip byte) {
		if step < 0 {
			step = -step
		}
		s := &Snapshot{Step: step}
		s.Add("a", sec1)
		s.Add("b", sec2)
		data := encode(s)
		if _, err := Decode(data); err != nil {
			t.Fatalf("clean decode failed: %v", err)
		}
		if flip == 0 {
			flip = 1 // a zero XOR would leave the bytes intact
		}
		if pos < 0 {
			pos = -pos
		}
		pos %= len(data)
		data[pos] ^= flip
		if got, err := Decode(data); err == nil {
			// The only acceptable "success" would be a decode of different
			// bytes that still re-encodes to the corrupted input — but CRC-64
			// makes a single-byte flip always detectable.
			t.Fatalf("corruption at byte %d undetected (decoded step %d)", pos, got.Step)
		}
	})
}
