package rpcrt

import (
	"encoding/binary"
	"fmt"
	"math"

	"vcmt/internal/graph"
	"vcmt/internal/randx"
	"vcmt/internal/tasks"
	"vcmt/internal/vcapi"
)

// host makes a worker a vcapi executor for one internal/tasks batch
// program — the very program the engine runs. It is the vcapi.Context the
// program sees (machine = worker id, RNG = the engine's stream for that
// machine, Send = the worker's send buffer) plus the exact conversion
// between the program's message type and the wire envelope.
type host[M any] struct {
	w      *Worker
	prog   tasks.Batch[M]
	rng    *randx.RNG
	vertex graph.VertexID
	msgs   []M // Compute's argument, converted from the vertex's inbox segment

	pack   func(dst graph.VertexID, m M) Message
	unpack func(Message) M
	// results reads the worker's share of the output off the job, once
	// prog.Finish has folded the batch into it.
	results  func() []ResultEntry
	finished bool
}

// newHost hosts the single batch of a cluster job; the RNG stream is the
// one engine machine w.id draws from in batch 0 of a job seeded spec.Seed.
func newHost[M any](w *Worker, spec JobSpec, prog tasks.Batch[M]) *host[M] {
	return &host[M]{w: w, prog: prog, rng: randx.New(vcapi.MachineSeed(tasks.BatchSeed(spec.Seed, 0), w.id))}
}

// hostMSSP hosts the multi-source shortest-path program: the distance rides
// in the envelope's float32 as it is.
func hostMSSP(w *Worker, spec JobSpec) (hosted, error) {
	job, err := tasks.NewMSSP(w.g, w.part, tasks.MSSPConfig{Sources: spec.Sources})
	if err != nil {
		return nil, err
	}
	h := newHost(w, spec, job.NextBatch(len(spec.Sources)))
	h.pack = func(dst graph.VertexID, m tasks.DistMsg) Message { return Message{Dst: dst, Src: m.Src, Val: m.Dist} }
	h.unpack = func(m Message) tasks.DistMsg { return tasks.DistMsg{Src: m.Src, Dist: m.Val} }
	h.results = func() (out []ResultEntry) {
		for i := range spec.Sources {
			for _, v := range w.owned {
				if d := job.Distance(i, v); !math.IsInf(d, 1) {
					out = append(out, ResultEntry{Row: uint32(i), V: v, Val: d})
				}
			}
		}
		return out
	}
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
	h := newHost(w, spec, prog)
	h.pack = func(dst graph.VertexID, m tasks.HopMsg) Message {
		return Message{Dst: dst, Src: m.Src, Val: float32(m.Hop)}
	}
	h.unpack = func(m Message) tasks.HopMsg { return tasks.HopMsg{Src: m.Src, Hop: int32(m.Val)} }
	h.results = func() (out []ResultEntry) {
		for i := range spec.Sources {
			out = append(out, ResultEntry{Row: uint32(i), Val: float64(job.Reached(i))})
		}
		return out
	}
	return h, nil
}

// hostBPPR hosts the Monte-Carlo random-walk program: a bundle holds at
// most spec.Walks walks, which RunBPPR keeps within what a float32 counts
// exactly.
func hostBPPR(w *Worker, spec JobSpec) hosted {
	job := tasks.NewBPPR(w.g, w.part, tasks.BPPRConfig{Alpha: spec.Alpha, WalksPerNode: int(spec.Walks)})
	h := newHost(w, spec, job.NextBatch(int(spec.Walks)))
	h.pack = func(dst graph.VertexID, m tasks.WalkMsg) Message {
		return Message{Dst: dst, Src: m.Src, Val: float32(m.Count)}
	}
	h.unpack = func(m Message) tasks.WalkMsg { return tasks.WalkMsg{Src: m.Src, Count: int32(m.Val)} }
	h.results = func() (out []ResultEntry) {
		job.EachEndpoint(w.id, func(src, v graph.VertexID, walks float64) {
			out = append(out, ResultEntry{Row: src, V: v, Val: walks})
		})
		return out
	}
	return h
}

func (h *host[M]) seed() { h.prog.Seed(h) }

func (h *host[M]) compute(v graph.VertexID, msgs []Message) {
	h.vertex = v
	h.msgs = h.msgs[:0]
	for _, m := range msgs {
		h.msgs = append(h.msgs, h.unpack(m))
	}
	h.prog.Compute(h, v, h.msgs)
}

func (h *host[M]) collect() []ResultEntry {
	if !h.finished {
		h.finished = true
		h.prog.Finish()
	}
	return h.results()
}

// saveState is the worker snapshot's prog section: the host's RNG state,
// then the program's own vcapi.StateSnapshotter bytes.
func (h *host[M]) saveState() ([]byte, error) {
	state, err := h.prog.SaveState()
	return append(binary.LittleEndian.AppendUint64(nil, h.rng.State()), state...), err
}

func (h *host[M]) loadState(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("rpcrt: program snapshot is %d bytes, shorter than its RNG state", len(data))
	}
	h.rng.SetState(binary.LittleEndian.Uint64(data))
	return h.prog.LoadState(data[8:])
}

// The vcapi.Context a hosted program runs against.

func (h *host[M]) Graph() *graph.Graph             { return h.w.g }
func (h *host[M]) Machine() int                    { return h.w.id }
func (h *host[M]) Vertex() graph.VertexID          { return h.vertex }
func (h *host[M]) Round() int                      { return h.w.round }
func (h *host[M]) OwnedVertices() []graph.VertexID { return h.w.owned }
func (h *host[M]) RNG() *randx.RNG                 { return h.rng }
func (h *host[M]) Send(dst graph.VertexID, m M)    { h.w.sc.send(h.pack(dst, m)) }

func (h *host[M]) Broadcast(src graph.VertexID, m M) {
	for _, u := range h.w.g.Neighbors(src) {
		h.Send(u, m)
	}
}
