package recycle

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestGetHandsOutEachValueOnce: with the GC off, Get returns the values
// offered, most recent first, each once, then new zero values.
func TestGetHandsOutEachValueOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var b Bin[[]byte]
	small, large := make([]byte, 0, 64), make([]byte, 0, 4096)
	b.Put(&small)
	b.Put(&large)
	if got := b.Get(); got != &large {
		t.Fatalf("Get = %p, want the buffer offered last, %p", got, &large)
	}
	if got := b.Get(); got != &small {
		t.Fatalf("Get = %p, want the buffer offered first, %p", got, &small)
	}
	if got := b.Get(); got == &small || got == &large || *got != nil {
		t.Fatalf("Get on an empty bin = %p holding %d bytes, want a new zero value", got, cap(*got))
	}
}

// TestBinHoldsNothingAcrossGC: a value no one else references is gone after
// a GC, and over 1 000 release/acquire cycles with a GC between them the
// bin stays bounded, because Put prunes the entries the GC freed.
func TestBinHoldsNothingAcrossGC(t *testing.T) {
	var b Bin[[1 << 10]byte]
	for i := range 1000 {
		b.Put(&[1 << 10]byte{1})
		b.Put(&[1 << 10]byte{2})
		if i%2 == 0 && b.Get()[0] != 2 {
			t.Fatalf("cycle %d: the value offered last was not handed out before a GC", i)
		}
		runtime.GC()
		if n := len(b.free); n > 2 {
			t.Fatalf("cycle %d: the bin holds %d entries, want at most the 2 of this cycle", i, n)
		}
	}
	if p := b.Get(); p[0] != 0 {
		t.Fatal("after a GC the bin handed out a value no one referenced")
	}
}
