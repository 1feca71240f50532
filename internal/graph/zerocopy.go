package graph

import (
	"encoding/binary"
	"unsafe"

	"vcmt/internal/rec"
)

// The v3 dump body is the CSR arrays serialized little-endian at their
// natural alignment, so on a little-endian host loading is a matter of
// reinterpreting bytes — no per-element decode. The helpers here hold all
// of the package's unsafe code: aligned allocation and slice
// reinterpretation in both directions, with the element-wise fallbacks
// big-endian hosts use.

// hostLittleEndian reports whether the machine's native byte order matches
// the on-disk little-endian format, enabling zero-copy loads and stores.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedBytes returns an n-byte slice backed by a 64-bit-aligned
// allocation, so the offsets section (int64s starting at byte 0) can be
// aliased in place. The adjacency and weight sections inherit their 4-byte
// alignment because (n+1)*8 and arcs*4 are both multiples of 4.
func alignedBytes(n int64) []byte {
	if n == 0 {
		return nil
	}
	backing := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), n)
}

// section is the element type of a dump section.
type section interface{ int64 | VertexID | float32 }

// loadSection returns a little-endian byte section as []T: on a
// little-endian host it aliases b, whose base must be aligned for T, and
// elsewhere it is decoded element by element.
func loadSection[T section](b []byte) []T {
	var zero T
	n := len(b) / int(unsafe.Sizeof(zero))
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	_, _ = binary.Decode(b, binary.LittleEndian, out) // fails only for a b shorter than out
	return out
}

// writeSection writes s as raw little-endian bytes: one uncopied span on a
// little-endian host, an encoded copy elsewhere.
func writeSection[T section](w *rec.Writer, s []T) {
	if len(s) == 0 {
		return
	}
	if hostLittleEndian {
		w.Span(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0]))))
		return
	}
	b, _ := binary.Append(nil, binary.LittleEndian, s) // fails only for a T of no fixed size
	w.Span(b)
}
