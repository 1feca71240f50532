// Package recycle hands a finished job's buffers to the next job that asks
// for the same kind. A Bin holds them only through weak pointers: a buffer
// is reused if a job takes it before the next GC, and that GC frees it
// otherwise, as if it had been dropped. So a Bin needs no cap, and it
// raises neither the live heap that paces the GC nor the peak RSS.
package recycle

import (
	"slices"
	"sync"
	"weak"
)

// Bin is a set of weakly held values, safe for concurrent use, that hands
// each value out once. The zero Bin is empty.
type Bin[T any] struct {
	mu   sync.Mutex
	free []weak.Pointer[T]
}

// Put offers p for reuse; the caller must not touch it again. Put drops the
// entries the GC freed, so the bin holds only live values and p.
func (b *Bin[T]) Put(p *T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.free = slices.DeleteFunc(b.free, func(w weak.Pointer[T]) bool { return w.Value() == nil })
	b.free = append(b.free, weak.Make(p))
}

// Get takes the most recently offered live value, or returns a new zero
// one.
func (b *Bin[T]) Get() *T {
	b.mu.Lock()
	defer b.mu.Unlock()
	for n := len(b.free); n > 0; n-- {
		p := b.free[n-1].Value()
		b.free = b.free[:n-1]
		if p != nil {
			return p
		}
	}
	return new(T)
}
