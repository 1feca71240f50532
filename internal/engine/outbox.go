package engine

// Outbox rows are lists of fixed-size envelope chunks. A row never
// reallocates or copies what it already holds: when its last chunk fills it
// takes another from the source machine's free list (allocating only when
// the list is empty), and route hands every chunk back once the row is
// delivered. An engine's chunk population therefore settles at the peak
// superstep's demand and stays there — across rounds and, through Reset,
// across batches — where growing one slice per row allocated about five
// times the peak and copied four times it, every batch.
//
// chunkSize is 1024 envelopes (12 KiB for the 8-byte task payloads). The
// choice is a trade between two fixed costs, both measured on the
// LiveJournal replica at 8 machines: each of the k×k rows pins one partly
// filled chunk (64 × 12 KiB = 768 KiB, which a job's first batch pays once),
// and each chunk costs one free-list pop and one slice-header walk at
// delivery. 256 and 4096 measured within noise of 1024 on mem-fewrounds;
// 4096 quadruples the pinned memory that tiny training batches pay, 256
// quadruples the chunk count of a 5 M-message round for nothing.
const (
	chunkShift = 10
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// chunk is a fixed-size array so that indexing with pos&chunkMask needs no
// bounds check.
type chunk[M any] [chunkSize]envelope[M]

// outRow is one outbox row: n envelopes in emission order, envelope i at
// chunks[i>>chunkShift][i&chunkMask]. Every chunk but the last is full, so
// the row needs a new one exactly when n is a multiple of chunkSize; tail
// is the last chunk, where push writes.
type outRow[M any] struct {
	chunks []*chunk[M]
	tail   *chunk[M]
	n      int
	// free is the free list of the machine that writes this row; machines
	// run concurrently, so they never share one.
	free *[]*chunk[M]
}

// push appends env, drawing a chunk from free when the last one is full.
func (r *outRow[M]) push(env envelope[M]) {
	off := r.n & chunkMask
	if off == 0 {
		r.grow()
	}
	r.tail[off] = env
	r.n++
}

func (r *outRow[M]) grow() {
	var c *chunk[M]
	if n := len(*r.free); n > 0 {
		c = (*r.free)[n-1]
		*r.free = (*r.free)[:n-1]
	} else {
		c = new(chunk[M])
	}
	r.chunks = append(r.chunks, c)
	r.tail = c
}

// filled returns the occupied prefix of chunk ci; walking ci over
// range r.chunks visits the row in emission order.
func (r *outRow[M]) filled(ci int) []envelope[M] {
	c := r.chunks[ci]
	if rem := r.n - ci<<chunkShift; rem < chunkSize {
		return c[:rem]
	}
	return c[:]
}

// release empties the row, returning its chunks to the free list.
func (r *outRow[M]) release() {
	*r.free = append(*r.free, r.chunks...)
	r.chunks = r.chunks[:0]
	r.tail = nil
	r.n = 0
}
