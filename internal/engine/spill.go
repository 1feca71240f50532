package engine

import (
	"fmt"
	"io"
	"os"

	"vcmt/internal/ooc"
)

// Codec serializes message payloads for out-of-core buffering. Encode
// appends the payload to buf and returns the extended slice; Decode parses
// one payload from data and returns the payload and the number of bytes
// consumed.
type Codec[M any] interface {
	Encode(buf []byte, m M) []byte
	Decode(data []byte) (M, int)
}

// SpillOptions enables GraphD-style out-of-core message buffering: once the
// in-memory outbox holds ThresholdMsgs envelopes it is appended to a spill
// file in Dir, keeping resident memory bounded regardless of message
// volume. Spilled envelopes are streamed back at delivery time (§2.2:
// "the disk is ready to receive the stream of edges and messages").
//
// Spill files use the ooc partition file format (kind KindMessages), the
// one on-disk framing shared with the partitioned out-of-core backend:
// varint-framed records, a record-count cross-check and a CRC-64 trailer,
// so a truncated or corrupted spill is detected at drain time instead of
// silently delivering garbage.
type SpillOptions[M any] struct {
	Codec         Codec[M]
	Dir           string
	ThresholdMsgs int
}

type spillState struct {
	w *ooc.Writer
}

// SpilledBytes returns the real bytes written to spill files over the whole
// run so far.
func (e *Engine[M]) SpilledBytes() int64 { return e.spilledBytes }

// SpilledRecords returns the number of envelopes spilled over the whole run
// so far.
func (e *Engine[M]) SpilledRecords() int64 { return e.spilledRecords }

// newSpillFile reserves a unique file name in the spill directory and opens
// a partition writer over it.
func newSpillFile(dir string) (*ooc.Writer, error) {
	f, err := os.CreateTemp(dir, "vcmt-spill-*.vp")
	if err != nil {
		return nil, err
	}
	name := f.Name()
	f.Close()
	return ooc.Create(name, ooc.KindMessages, false)
}

// flushSpill writes every buffered outbox envelope to the spill file and
// truncates the outboxes. Spill mode runs sequentially on the legacy
// one-row-per-machine outbox layout, so walking the rows in machine order
// reproduces the exact record stream the single-outbox engine wrote:
// machines execute in index order, hence buffered envelopes of
// lower-numbered machines chronologically precede those of the machine
// currently mid-superstep.
func (e *Engine[M]) flushSpill() {
	opts := e.opts.Spill
	if e.spill == nil {
		w, err := newSpillFile(opts.Dir)
		if err != nil {
			panic(fmt.Sprintf("engine: cannot create spill file: %v", err))
		}
		e.spill = &spillState{w: w}
	}
	var scratch []byte
	for m := range e.outRows {
		r := &e.outRows[m]
		for ci := range r.chunks {
			for _, env := range r.filled(ci) {
				scratch = opts.Codec.Encode(scratch[:0], env.payload)
				before := e.spill.w.Bytes()
				if err := e.spill.w.AppendMessage(env.dst, scratch); err != nil {
					panic(fmt.Sprintf("engine: spill write: %v", err))
				}
				e.spilledRecords++
				e.spilledBytes += e.spill.w.Bytes() - before
			}
		}
		r.release()
	}
	e.outPending = 0
}

// drainSpill seals and reads back every spilled envelope of the current
// superstep — verifying the record count and checksum — and removes the
// spill file. It returns nil when nothing was spilled.
func (e *Engine[M]) drainSpill() []envelope[M] {
	if e.spill == nil {
		return nil
	}
	st := e.spill
	e.spill = nil
	path := st.w.Path()
	records := st.w.Records()
	if _, err := st.w.Finish(); err != nil {
		panic(fmt.Sprintf("engine: spill flush: %v", err))
	}
	defer os.Remove(path)
	r, err := ooc.Open(path)
	if err != nil {
		panic(fmt.Sprintf("engine: spill open: %v", err))
	}
	defer r.Close()
	envs := make([]envelope[M], 0, records)
	for {
		dst, payload, err := r.NextMessage()
		if err == io.EOF {
			break
		}
		if err != nil {
			panic(fmt.Sprintf("engine: spill read: %v", err))
		}
		m, used := e.opts.Spill.Codec.Decode(payload)
		if used != len(payload) {
			panic("engine: spill codec decoded wrong length")
		}
		envs = append(envs, envelope[M]{dst: dst, payload: m})
	}
	return envs
}

// CleanupSpill removes any leftover spill file (for abandoned runs).
func (e *Engine[M]) CleanupSpill() {
	if e.spill == nil {
		return
	}
	e.spill.w.Abort()
	e.spill = nil
}
