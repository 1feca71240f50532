package tasks

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/graph"
	"vcmt/internal/rec"
	"vcmt/internal/sim"
)

// sourceJob is the source-batch core of MSSP and BKHS, the jobs over a
// source set S whose workload unit is one source (§3, §4): it cuts the next
// batch off S, marks it in the job's source index, runs it on the job's
// engine, unmarks it and counts it done. Once the last batch finishes it
// drops the engine and the recycled table, so a finished job holds only its
// results. M is the task's message type and T its table entry.
type sourceJob[M any, T uint8 | float32] struct {
	name    string
	g       *graph.Graph
	part    *graph.Partition
	sources []graph.VertexID
	exec    execConfig
	kind    msgKind[M]
	// next builds the program of the job's next batch of up to workload
	// sources, cutting it with cut (the task's NextBatch).
	next func(workload int) (Batch[M], error)
	// recycle gives every batch one job-lifetime table, grown to the
	// largest batch, when the tables hold no results (BKHS); otherwise each
	// batch gets its own table, which the job keeps (MSSP).
	recycle bool

	done int // sources fully processed so far
	// srcIdx maps a vertex to its index among the current batch's sources,
	// -1 for every other vertex. A batch marks its own sources before it
	// runs and unmarks them after, so the cost per batch is O(batch), not
	// O(n).
	srcIdx []int32
	batch  []graph.VertexID  // the batch cut last
	eng    *engine.Engine[M] // runs every synchronous batch (see runBatch)
	spare  []T               // the recycled table
	// invalid is why S cannot run, nil when it can (see newSourceJob).
	invalid error
}

// newSourceJob returns the core of a job over S; its invalid field is set
// when a source is not a vertex of g or repeats an earlier one, which would
// otherwise give a batch two columns for one vertex or index past the
// table.
func newSourceJob[M any, T uint8 | float32](name string, g *graph.Graph, part *graph.Partition,
	sources []graph.VertexID, exec execConfig, kind msgKind[M]) sourceJob[M, T] {
	idx := make([]int32, g.NumVertices())
	for v := range idx {
		idx[v] = -1
	}
	j := sourceJob[M, T]{name: name, g: g, part: part, sources: sources, exec: exec, kind: kind, srcIdx: idx}
	for i, s := range sources {
		if int(s) >= len(idx) {
			j.invalid = fmt.Errorf("tasks: %s source %d is not a vertex of a %d-vertex graph", name, s, len(idx))
			break
		}
		if idx[s] >= 0 {
			j.invalid = fmt.Errorf("tasks: %s source %d appears twice", name, s)
			break
		}
		idx[s] = int32(i)
	}
	for _, s := range sources {
		if int(s) < len(idx) {
			idx[s] = -1
		}
	}
	return j
}

// Name implements Job.
func (j *sourceJob[M, T]) Name() string { return j.name }

// TotalWorkload implements Job: the number of sources.
func (j *sourceJob[M, T]) TotalWorkload() int { return len(j.sources) }

// SourcesDone returns how many sources have completed.
func (j *sourceJob[M, T]) SourcesDone() int { return j.done }

// RunBatch implements Job: processes the next `workload` sources.
func (j *sourceJob[M, T]) RunBatch(run *sim.Run, workload int, batchIdx int) ([]int64, error) {
	if workload <= 0 || j.done >= len(j.sources) {
		return make([]int64, j.part.NumMachines()), nil
	}
	prog, err := j.next(workload)
	if err != nil {
		return nil, err
	}
	if err := runBatch(&j.eng, j.g, j.part, prog, run, j.exec, batchIdx, j.kind); err != nil {
		j.unmark()
		return nil, fmt.Errorf("tasks: %s batch %d: %w", j.name, batchIdx, err)
	}
	return prog.Finish(), nil
}

// cut cuts the next batch of up to workload sources off S, marks it in the
// source index and returns its table with every entry fill.
func (j *sourceJob[M, T]) cut(workload int, fill T) sourceTable[T] {
	j.batch = j.sources[j.done:min(j.done+workload, len(j.sources))]
	for i, s := range j.batch {
		j.srcIdx[s] = int32(i)
	}
	n := j.g.NumVertices()
	size := n * len(j.batch)
	cells := j.spare
	if !j.recycle || len(cells) < size {
		cells = make([]T, size)
	}
	if j.recycle {
		j.spare = cells
	}
	cells = cells[:size]
	// Doubling copies fill the table at memmove speed; a loop over
	// 1024 × n entries per batch is a measurable share of a pass.
	if size > 0 {
		cells[0] = fill
		for f := 1; f < size; f *= 2 {
			copy(cells[f:], cells[:f])
		}
	}
	return sourceTable[T]{sources: j.batch, srcIdx: j.srcIdx, n: n, cells: cells,
		entries: make([]int64, j.part.NumMachines())}
}

// finish unmarks the batch cut last, counts it done and returns the index
// in S of its first source.
func (j *sourceJob[M, T]) finish() (first int) {
	first = j.done
	j.done += len(j.batch)
	j.unmark()
	if j.done == len(j.sources) {
		j.eng, j.spare = nil, nil
	}
	return first
}

func (j *sourceJob[M, T]) unmark() {
	for _, s := range j.batch {
		j.srcIdx[s] = -1
	}
	j.batch = nil
}

// sourceTable is a batch's n × S table of one entry per (vertex, batch
// source), vertex-major: v's entry for batch source i is row(v)[i], so one
// vertex's entries share a cache line. It owns the per-machine entry counts
// behind StateEntries and the batch's snapshot image, which is
// source-major: S and n as uint32, S columns of n entries, the machine
// count k as uint32, the lanes (k rows of S, the program's per-machine
// tallies), then the k entry counts, all little-endian.
type sourceTable[T uint8 | float32] struct {
	sources []graph.VertexID // the batch: column i is sources[i]
	srcIdx  []int32          // vertex -> its column, -1 for non-sources
	n       int
	cells   []T
	entries []int64   // entries set per machine
	lanes   [][]int64 // [machine][column], nil when the program keeps none
}

// row is v's entries, one per batch source.
func (t *sourceTable[T]) row(v graph.VertexID) []T {
	return t.cells[int(v)*len(t.sources):][:len(t.sources)]
}

// StateEntries implements vcapi.StateReporter.
func (t *sourceTable[T]) StateEntries(machine int) int64 { return t.entries[machine] }

// AppendState implements vcapi.StateSnapshotter, gathering the columns
// with a stride straight into buf. Program scratch that every Compute call
// resets needs no snapshot.
func (t *sourceTable[T]) AppendState(buf []byte) ([]byte, error) {
	s, k := len(t.sources), len(t.entries)
	buf = slices.Grow(buf, 12+binary.Size(t.cells)+8*(len(t.lanes)*s+k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.n))
	for i := range s {
		switch cells := any(t.cells).(type) {
		case []uint8:
			for x := i; x < len(cells); x += s {
				buf = append(buf, cells[x])
			}
		case []float32:
			for x := i; x < len(cells); x += s {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(cells[x]))
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	for _, lane := range t.lanes {
		for _, c := range lane {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
		}
	}
	for _, c := range t.entries {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	return buf, nil
}

// LoadState implements vcapi.StateSnapshotter. An image of other
// dimensions or of another length is an error wrapping ckpt.ErrCorrupt.
func (t *sourceTable[T]) LoadState(data []byte) error {
	c := rec.NewCursor(data, ckpt.ErrCorrupt)
	s, k := len(t.sources), len(t.entries)
	if gs, gn := c.U32(), c.U32(); int(gs) != s || int(gn) != t.n {
		c.Fail("tasks: snapshot of %d sources × %d vertices, the batch has %d × %d", gs, gn, s, t.n)
	}
	for i := range s {
		switch cells := any(t.cells).(type) {
		case []uint8:
			for v, b := range c.Bytes(uint64(t.n)) { // nil once c has stopped
				cells[v*s+i] = b
			}
		case []float32:
			col := c.Bytes(4 * uint64(t.n))
			for v := range len(col) / 4 {
				cells[v*s+i] = math.Float32frombits(binary.LittleEndian.Uint32(col[4*v:]))
			}
		}
	}
	if gk := c.U32(); int(gk) != k {
		c.Fail("tasks: snapshot of %d machines, the batch has %d", gk, k)
	}
	for _, lane := range t.lanes {
		for i := range lane {
			lane[i] = int64(c.U64())
		}
	}
	for m := range t.entries {
		t.entries[m] = int64(c.U64())
	}
	return c.Done()
}
