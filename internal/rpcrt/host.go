package rpcrt

import (
	"encoding/binary"
	"math"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/graph"
	"vcmt/internal/tasks"
	"vcmt/internal/vcapi"
)

// hosted is the worker's type-erased handle on the job it runs (see host).
type hosted interface {
	step() error
	buffered(d int) int64
	drain(d int, out []Message) []Message
	land(from int, batch []Message)
	collect() []byte
	snapshot(parent int) (*ckpt.Snapshot, error)
	restore(snap *ckpt.Snapshot) error
}

// host is a worker's machine engine for one message type M, running the
// current job's internal/tasks batch program — the very program the engine
// runs — plus the exact conversion between M and the wire envelope.
type host[M any] struct {
	id     int
	eng    *engine.Engine[M]
	pack   func(dst graph.VertexID, m M) Message
	unpack func(Message) M
	// finish folds the drained batch into the job and packs the worker's
	// share of the output off it; collect calls it once and keeps results.
	finish  func() []byte
	results []byte
}

// resultLen is the size of a Collect record, which appendResult writes: a
// row (a JobSpec.Sources index, or BPPR's source vertex), a vertex and a
// value (its distance, the worker's BKHS reach count at vertex 0, or the
// source's walks that stopped there), little-endian uint32, uint32, float64.
const resultLen = 16

func appendResult(buf []byte, row, v uint32, val float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, row)
	buf = binary.LittleEndian.AppendUint32(buf, v)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(val))
}

// install re-arms the worker's machine engine for M to run prog as the
// single batch of a job seeded seed — on the RNG streams an engine run of
// that job draws from — building the engine on the worker's first job of
// that message type. codec is M's codec, which Snapshot and Restore read
// from the engine's options.
func install[M any](w *Worker, prog vcapi.Program[M], seed uint64, codec engine.Codec[M],
	pack func(graph.VertexID, M) Message, unpack func(Message) M, finish func() []byte) *host[M] {
	opts := engine.Options[M]{Seed: tasks.BatchSeed(seed, 0), Codec: codec}
	for _, h := range w.hosts {
		if h, ok := h.(*host[M]); ok {
			h.eng.Reset(prog, nil, opts)
			h.finish, h.results = finish, nil
			return h
		}
	}
	h := &host[M]{id: w.id, eng: engine.NewMachine(w.g, w.part, w.id, prog, opts),
		pack: pack, unpack: unpack, finish: finish}
	w.hosts = append(w.hosts, h)
	return h
}

// hostMSSP hosts the multi-source shortest-path program: the distance rides
// in the envelope's float32 as it is.
func hostMSSP(w *Worker, spec JobSpec) (hosted, error) {
	job, err := tasks.NewMSSP(w.g, w.part, tasks.MSSPConfig{Sources: spec.Sources})
	if err != nil {
		return nil, err
	}
	prog := job.NextBatch(len(spec.Sources))
	var h *host[tasks.DistMsg]
	h = install(w, prog, spec.Seed, tasks.DistCodec{},
		func(dst graph.VertexID, m tasks.DistMsg) Message { return Message{Dst: dst, Src: m.Src, Val: m.Dist} },
		func(m Message) tasks.DistMsg { return tasks.DistMsg{Src: m.Src, Dist: m.Val} },
		func() (out []byte) {
			prog.Finish()
			for i := range spec.Sources {
				for _, v := range h.eng.Owned(w.id) {
					if d := job.Distance(i, v); !math.IsInf(d, 1) {
						out = appendResult(out, uint32(i), v, d)
					}
				}
			}
			return out
		})
	return h, nil
}

// hostBKHS hosts the k-hop search program: a hop count is at most
// tasks.MaxBKHSHops, which a float32 holds exactly.
func hostBKHS(w *Worker, spec JobSpec) (hosted, error) {
	job := tasks.NewBKHS(w.g, w.part, tasks.BKHSConfig{Sources: spec.Sources, K: int(spec.K)})
	prog, err := job.NextBatch(len(spec.Sources))
	if err != nil {
		return nil, err
	}
	return install(w, prog, spec.Seed, tasks.HopCodec{},
		func(dst graph.VertexID, m tasks.HopMsg) Message {
			return Message{Dst: dst, Src: m.Src, Val: float32(m.Hop)}
		},
		func(m Message) tasks.HopMsg { return tasks.HopMsg{Src: m.Src, Hop: int32(m.Val)} },
		func() (out []byte) {
			prog.Finish()
			for i := range spec.Sources {
				out = appendResult(out, uint32(i), 0, float64(job.Reached(i)))
			}
			return out
		}), nil
}

// hostBPPR hosts the Monte-Carlo random-walk program: a bundle holds at
// most spec.Walks walks, which RunBPPR keeps within what a float32 counts
// exactly.
func hostBPPR(w *Worker, spec JobSpec) hosted {
	job := tasks.NewBPPR(w.g, w.part, tasks.BPPRConfig{Alpha: spec.Alpha, WalksPerNode: int(spec.Walks)})
	prog := job.NextBatch(int(spec.Walks))
	return install(w, prog, spec.Seed, tasks.WalkCodec{},
		func(dst graph.VertexID, m tasks.WalkMsg) Message {
			return Message{Dst: dst, Src: m.Src, Val: float32(m.Count)}
		},
		func(m Message) tasks.WalkMsg { return tasks.WalkMsg{Src: m.Src, Count: int32(m.Val)} },
		func() []byte {
			prog.Finish()
			out := make([]byte, 0, resultLen*job.EndpointEntries())
			job.EachEndpoint(w.id, func(src, v graph.VertexID, walks float64) {
				out = appendResult(out, src, v, walks)
			})
			return out
		})
}

func (h *host[M]) step() error { return h.eng.Step() }

// buffered is what the last step sent machine d.
func (h *host[M]) buffered(d int) int64 { return int64(h.eng.Buffered(h.id, d)) }

// drain appends the messages the last step sent remote machine d to out,
// in emission order, and takes them off the engine.
func (h *host[M]) drain(d int, out []Message) []Message {
	h.eng.Drain(d, func(dst graph.VertexID, m M) { out = append(out, h.pack(dst, m)) })
	return out
}

// land buffers a decoded frame from worker from, every destination owned.
func (h *host[M]) land(from int, batch []Message) {
	for _, m := range batch {
		h.eng.Land(from, m.Dst, h.unpack(m))
	}
}

func (h *host[M]) collect() []byte {
	if h.finish != nil {
		h.results, h.finish = h.finish(), nil
	}
	return h.results
}

// snapshot is the engine's barrier snapshot: its outbox, rng and prog
// sections, a delta against step parent when it can be (see
// engine.SnapshotDelta).
func (h *host[M]) snapshot(parent int) (*ckpt.Snapshot, error) { return h.eng.SnapshotDelta(parent) }

func (h *host[M]) restore(snap *ckpt.Snapshot) error { return h.eng.Restore(snap) }
