// Package rpcrt is a real distributed vertex-centric runtime: worker
// processes (goroutines in-process, but fully isolated behind net/rpc over
// TCP loopback with gob serialization) each own a hash partition of the
// vertices; a master drives BSP supersteps — one Step RPC per worker per
// superstep, then the barrier — exactly the execution model of
// Pregel/Pregel+ (§2.1). It complements the simulated cluster: the
// simulator measures and prices paper-scale runs, while rpcrt demonstrates
// the same programming contract end-to-end with real sockets, real
// serialization and real barriers.
//
// A worker is an engine machine (GraphD's design: the worker's local message
// engine is the single-machine engine with a network underneath). It holds
// one engine.NewMachine engine per message type for its lifetime, Reset per
// job, executing machine = worker id of graph.HashPartition(n, k) with the
// internal/tasks program the engine runs. A Step runs one engine superstep
// and ships the rows written for remote machines as wire Deliver frames;
// the receiver lands them on its engine's per-sender rows. Delivery order,
// RNG streams and checkpoints are therefore the engine's by construction,
// and a cluster job is bit-identical to an engine run of the same job.
package rpcrt

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"vcmt/internal/ckpt"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/wire"
)

// Message is the wire message: a (source, value) pair addressed to a
// vertex. It aliases wire.Envelope; a worker converts its program's
// messages to it only to encode a Deliver frame, and back after decoding
// one.
type Message = wire.Envelope

// JobSpec selects and parameterizes a program on the workers.
type JobSpec struct {
	// Program is a registered program name ("mssp", "bkhs" or "bppr").
	Program string
	// Sources is the task's source set (mssp/bkhs; bppr walks start at
	// every vertex).
	Sources []graph.VertexID
	// K is the hop radius for bkhs.
	K int32
	// Walks is the per-vertex walk count for bppr.
	Walks int32
	// Alpha is the walk stop probability for bppr (default 0.15).
	Alpha float64
	// Seed is the job seed; workers derive the engine's per-machine RNG
	// streams from it.
	Seed uint64
}

// Byte counters measure the exact encoded size of the internal/wire
// delivery frames: senders count each frame once at encode time, receivers
// count each successfully decoded frame, so sent and received bytes are
// conserved across the cluster. The binary codec's sizes are pure functions
// of the message values, so the counters are exact and deterministic.

// WorkerStats are one worker's cumulative message and byte counters for the
// current job — the per-worker view of the telemetry registry. SentByPeer
// and RecvByPeer are full k-length matrix rows (self-column = machine-local
// traffic), so conservation (everything sent is received) is checkable
// pairwise across workers.
type WorkerStats struct {
	ID         int
	Sent       int64   // messages sent, local + remote
	Recv       int64   // messages received, local + remote
	SentRemote int64   // messages whose destination lives on another worker
	RecvRemote int64   // messages that arrived from another worker
	SentBytes  int64   // exact encoded bytes of delivery frames sent (local delivery is free)
	RecvBytes  int64   // exact encoded bytes of delivery frames received
	SentFrames int64   // delivery frames encoded and sent
	RecvFrames int64   // delivery frames received and decoded
	SentByPeer []int64 // SentByPeer[j]: messages this worker sent to worker j
	RecvByPeer []int64 // RecvByPeer[j]: messages this worker received from worker j
	Retries    int64   // delivery RPCs retried after drops or transport errors
}

// Worker is the RPC service owning one partition.
type Worker struct {
	id    int
	nPeer int
	g     *graph.Graph
	part  *graph.Partition

	// prog is the current job on its machine engine; hosts keeps one per
	// message type for the worker's lifetime (see install).
	prog  hosted
	hosts []hosted
	// out is the drain scratch a remote row is converted into for encoding.
	out []Message
	// ckptMgr holds the job's live checkpoint chain (nil until one is cut).
	ckptMgr *ckpt.Manager

	// mu orders landings against the engine's superstep: a peer's frames of
	// superstep r land only once this worker's own Step r is done
	// (stepped >= r) — its delivery has consumed the rows superstep r-1
	// filled — and never while it runs. cond wakes waiting landings. gen
	// counts StartJob calls: a landing that waited across one belongs to an
	// abandoned superstep and is refused, not landed.
	mu      sync.Mutex
	cond    sync.Cond
	stepped int
	gen     uint64

	statsMu    sync.Mutex
	sentByPeer []int64
	recvByPeer []int64
	retries    int64
	sentBytes  int64 // exact wire bytes of delivery frames encoded
	recvBytes  int64 // exact wire bytes of delivery frames decoded
	sentFrames int64
	recvFrames int64

	// roundBytes accumulates the wire bytes of the frames encoded during
	// the current Step call (handler goroutine only).
	roundBytes int64

	// tracer records this worker's spans (nil = tracing off). curSpan is
	// the span of the Step call currently executing — it is stamped into
	// outgoing Deliver frames as the wire trace context, so receiver-side
	// spans parent under the sending worker's compute span. Handler
	// goroutine only, like roundBytes.
	tracer  *obs.Tracer
	curSpan obs.SpanID

	// round is the superstep currently executing (1 = seed), the engine's
	// superstep numbering, which fault-plan steps follow.
	round int
	// fplan injects deterministic faults (nil = none).
	fplan *fault.Plan
	// dead marks a crashed worker: its listener is closed, but already-open
	// gob connections keep serving, so every RPC method checks the flag.
	dead atomic.Bool
	// rpcTimeout bounds this worker's peer Deliver calls.
	rpcTimeout time.Duration

	// peers[j] is the connection to worker j (Cluster.wire); peers[id] is
	// nil, since a worker ships only rows for remote machines.
	peers    []*rpc.Client
	listener net.Listener
	server   *rpc.Server
}

// errDown is the error every RPC on a crashed worker returns. net/rpc
// flattens errors to strings, so callers match on the text.
const workerDownMsg = "worker is down"

func (w *Worker) down() error {
	return fmt.Errorf("rpcrt: worker %d: %s", w.id, workerDownMsg)
}

// die marks the worker crashed, refuses the landings waiting on it and
// closes its listener. Existing connections drain through the dead-flag
// checks.
func (w *Worker) die() error {
	w.dead.Store(true)
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
	if w.listener != nil {
		return w.listener.Close()
	}
	return nil
}

// newWorker builds the service for machine id of part.
func newWorker(id int, part *graph.Partition, g *graph.Graph) *Worker {
	k := part.NumMachines()
	w := &Worker{
		id: id, nPeer: k, g: g, part: part,
		sentByPeer: make([]int64, k),
		recvByPeer: make([]int64, k),
		rpcTimeout: defaultRPCTimeout,
	}
	w.cond.L = &w.mu
	return w
}

// StartJobArgs configures a job on a worker. A non-empty Restore is the
// checkpoint directory recovery rolls the job back from; Trace is then the
// master-side recovery span the worker's restore span parents under
// (0 = tracing off).
type StartJobArgs struct {
	Spec    JobSpec
	Restore string
	Trace   uint64
}

// StartJob installs the program on a re-armed engine and clears per-job
// state, refusing every landing still waiting on the previous job. Seeding
// is the first Step, so no worker can deliver messages into a peer that has
// not reset yet. With a Restore directory the new job then resumes from the
// worker's latest checkpoint there (see restore).
func (w *Worker) StartJob(args StartJobArgs, _ *struct{}) error {
	if w.dead.Load() {
		return w.down()
	}
	w.statsMu.Lock()
	clear(w.sentByPeer)
	clear(w.recvByPeer)
	w.retries = 0
	w.sentBytes = 0
	w.recvBytes = 0
	w.sentFrames = 0
	w.recvFrames = 0
	w.statsMu.Unlock()
	w.roundBytes = 0
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stepped = 0
	w.gen++
	w.cond.Broadcast()
	w.ckptMgr = nil
	var err error
	switch args.Spec.Program {
	case "mssp":
		w.prog, err = hostMSSP(w, args.Spec)
	case "bkhs":
		w.prog, err = hostBKHS(w, args.Spec)
	case "bppr":
		w.prog = hostBPPR(w, args.Spec)
	default:
		w.prog, err = nil, fmt.Errorf("rpcrt: unknown program %q", args.Spec.Program)
	}
	if err != nil || args.Restore == "" {
		return err
	}
	return w.restore(args.Restore, obs.SpanID(args.Trace))
}

// StepArgs asks a worker to run superstep Round (1 seeds). Trace is the
// span id of the master-side RPC span the worker's span parents under
// (0 = tracing off).
type StepArgs struct {
	Round int
	Trace uint64
}

// RoundReply is a worker's reply to Step: the messages it sent this
// superstep and the exact encoded bytes of the delivery frames it pushed to
// remote peers (0 when every destination was local).
type RoundReply struct {
	Msgs      int64
	WireBytes int64
}

// Perfetto row assignment: the master is process 0 (job/superstep spans on
// track 0, per-worker RPC spans on track 1+i); worker i is process 1+i,
// with its compute/seed spans on track 0 and frames received from worker j
// on track 1+j.
func workerProc(id int) int { return 1 + id }

const workerComputeTrack = 0

func workerRecvTrack(from int) int { return 1 + from }

// Step runs one superstep of the job on the worker's machine engine — the
// seed for round 1, delivery and compute after — and ships what it sent to
// remote machines to their workers. It replies with the superstep's message
// and wire-byte counts. One goroutine computes: a machine engine executes
// one machine, and sharding it measured no gain (DESIGN.md §7) — add
// workers, not shards.
//
// Fault injection happens here: a planned crash kills the worker before any
// compute (from superstep 2 on: as in the engine, the seed is never a crash
// point, since no checkpoint precedes it), a delay sleeps before computing,
// and a slowdown stretches the superstep's wall time by the planned factor.
func (w *Worker) Step(args StepArgs, reply *RoundReply) error {
	if w.dead.Load() {
		return w.down()
	}
	if w.prog == nil {
		return fmt.Errorf("rpcrt: no job started on worker %d", w.id)
	}
	w.round = args.Round
	w.roundBytes = 0
	name := "compute"
	if args.Round == 1 {
		name = "seed"
	}
	w.curSpan = w.tracer.Begin(obs.SpanID(args.Trace), name, "worker",
		workerProc(w.id), workerComputeTrack, obs.L("round", fmt.Sprint(args.Round)))
	if args.Round > 1 && w.fplan.Crash(w.id, args.Round) {
		w.die()
		return w.endStep(fmt.Errorf("rpcrt: worker %d: injected crash at superstep %d", w.id, args.Round), 0, reply)
	}
	if d := w.fplan.Delay(w.id, args.Round); d > 0 {
		time.Sleep(d)
	}
	start := time.Now()
	w.mu.Lock()
	err := w.prog.step()
	w.stepped = args.Round
	w.cond.Broadcast()
	w.mu.Unlock()
	var msgs int64
	if err == nil {
		msgs, err = w.flush()
	}
	if f := w.fplan.SlowFactor(w.id, args.Round); err == nil && f > 1 {
		time.Sleep(time.Duration(float64(time.Since(start)) * (f - 1)))
	}
	return w.endStep(err, msgs, reply)
}

// endStep closes the superstep's span and fills in the reply.
func (w *Worker) endStep(err error, msgs int64, reply *RoundReply) error {
	if err != nil {
		w.tracer.End(w.curSpan, obs.L("error", err.Error()))
	} else {
		w.tracer.End(w.curSpan, obs.L("msgs", fmt.Sprint(msgs)))
		*reply = RoundReply{Msgs: msgs, WireBytes: w.roundBytes}
	}
	w.curSpan = 0
	return err
}

// deliverAttempts bounds the per-peer delivery retries; backoff doubles
// from deliverBackoff between attempts.
const (
	deliverAttempts = 3
	deliverBackoff  = 5 * time.Millisecond
)

// flush counts what the superstep sent each machine and drains every remote
// row into packed binary Deliver frames — at most wire.MaxDeliverEnvelopes
// per frame, in emission order — encoded into pooled buffers and pushed
// over the peer RPC connections. One RPC carries a whole chunk of
// envelopes, not N gob-encoded structs. Each frame's exact encoded size is
// counted once, at encode time, so a dropped-and-retried delivery (which
// re-sends the identical frame) stays invisible in the byte counters,
// mirroring the message counters.
//
// Buffer recycling is safe because callTimeout issues the RPC via
// Client.Go, which gob-encodes the arguments synchronously before
// returning: by the time deliverWithRetry comes back, net/rpc no longer
// references the frame.
func (w *Worker) flush() (int64, error) {
	var msgs int64
	for p := 0; p < w.nPeer; p++ {
		n := w.prog.buffered(p)
		msgs += n
		w.statsMu.Lock()
		w.sentByPeer[p] += n
		if p == w.id {
			w.recvByPeer[p] += n
		}
		w.statsMu.Unlock()
		if p == w.id || n == 0 {
			continue
		}
		w.out = w.prog.drain(p, w.out[:0])
		for lo := 0; lo < len(w.out); lo += wire.MaxDeliverEnvelopes {
			hi := min(lo+wire.MaxDeliverEnvelopes, len(w.out))
			buf := wire.GetBuf()
			frame := wire.EncodeDeliver((*buf)[:0], w.id, w.round, wire.TraceContext(w.curSpan), w.out[lo:hi])
			n := int64(len(frame))
			w.statsMu.Lock()
			w.sentBytes += n
			w.sentFrames++
			w.statsMu.Unlock()
			w.roundBytes += n
			err := w.deliverWithRetry(p, DeliverArgs{Frame: frame})
			*buf = frame
			wire.PutBuf(buf)
			if err != nil {
				return msgs, fmt.Errorf("rpcrt: worker %d -> %d deliver: %w", w.id, p, err)
			}
		}
	}
	return msgs, nil
}

// deliverWithRetry sends one encoded frame to a peer with bounded retry
// and exponential backoff. Planned drop faults consume one attempt without
// touching the wire — the retry then re-sends the identical frame, so a
// dropped-and-retried delivery is invisible in the message and byte
// counters alike.
func (w *Worker) deliverWithRetry(p int, args DeliverArgs) error {
	backoff := deliverBackoff
	var lastErr error
	for attempt := 0; attempt < deliverAttempts; attempt++ {
		if attempt > 0 {
			w.statsMu.Lock()
			w.retries++
			w.statsMu.Unlock()
			time.Sleep(backoff)
			backoff *= 2
		}
		if w.fplan.DropDeliver(w.id, p, w.round) {
			lastErr = fmt.Errorf("injected drop at superstep %d", w.round)
			continue
		}
		if err := callTimeout(w.peers[p], "Worker.Deliver", args, &struct{}{}, w.rpcTimeout); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// DeliverArgs carries one encoded wire.FrameDeliver frame: the routing
// header inside the frame identifies the sending worker, so the receiver
// can attribute the traffic in its RecvByPeer matrix row. net/rpc still
// moves the bytes, but gob sees a single []byte — the per-message encoding
// cost and size instability of reflecting over a struct slice are gone.
type DeliverArgs struct {
	Frame []byte
}

// Deliver decodes a delivery frame from a peer and lands it on the engine's
// row from that peer, once this worker has stepped the frame's superstep.
// The frame is decoded in full before any message is applied: a corrupt
// frame is rejected wholesale with an error wrapping wire.ErrCorrupt — and
// one from the worker itself or an unknown sender, for a vertex owned
// elsewhere, or still waiting when a StartJob abandons its superstep with a
// plain error — and leaves the engine and the counters untouched.
func (w *Worker) Deliver(args DeliverArgs, _ *struct{}) error {
	if w.dead.Load() {
		return w.down()
	}
	sl := wire.GetEnvelopes()
	h, batch, err := wire.DecodeDeliver(args.Frame, (*sl)[:0])
	*sl = batch[:0] // keep the (possibly grown) backing array for the pool
	defer wire.PutEnvelopes(sl)
	if err == nil && (h.From < 0 || h.From >= w.nPeer || h.From == w.id) {
		err = fmt.Errorf("frame from worker %d, which is no peer", h.From)
	}
	for _, m := range batch {
		if err == nil && (int(m.Dst) >= w.g.NumVertices() || w.part.Owner(m.Dst) != w.id) {
			err = fmt.Errorf("message for vertex %d, which worker %d does not own", m.Dst, w.id)
		}
	}
	if err != nil {
		return fmt.Errorf("rpcrt: worker %d deliver: %w", w.id, err)
	}
	// The frame's trace context is the sender's compute span, which stays
	// open until the sender's flush RPC (this call) returns — so the recv
	// span nests inside it on the wall clock.
	if w.tracer != nil {
		span := w.tracer.Begin(obs.SpanID(h.Trace), "recv", "wire",
			workerProc(w.id), workerRecvTrack(h.From),
			obs.L("from", fmt.Sprint(h.From)),
			obs.L("msgs", fmt.Sprint(h.Count)),
			obs.L("bytes", fmt.Sprint(len(args.Frame))))
		defer w.tracer.End(span)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	gen := w.gen
	for w.prog != nil && w.stepped < h.Round && w.gen == gen && !w.dead.Load() {
		w.cond.Wait()
	}
	switch {
	case w.dead.Load():
		return w.down()
	case w.prog == nil:
		return fmt.Errorf("rpcrt: worker %d deliver: no job started", w.id)
	case w.gen != gen:
		return fmt.Errorf("rpcrt: worker %d deliver: superstep %d frame from worker %d outlived its job", w.id, h.Round, h.From)
	}
	w.prog.land(h.From, batch)
	w.statsMu.Lock()
	w.recvBytes += int64(len(args.Frame))
	w.recvFrames++
	w.recvByPeer[h.From] += int64(h.Count)
	w.statsMu.Unlock()
	return nil
}

// Stats reports this worker's cumulative counters for the current job.
func (w *Worker) Stats(_ struct{}, reply *WorkerStats) error {
	if w.dead.Load() {
		return w.down()
	}
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	st := WorkerStats{
		ID:         w.id,
		SentByPeer: append([]int64(nil), w.sentByPeer...),
		RecvByPeer: append([]int64(nil), w.recvByPeer...),
		Retries:    w.retries,
		SentBytes:  w.sentBytes,
		RecvBytes:  w.recvBytes,
		SentFrames: w.sentFrames,
		RecvFrames: w.recvFrames,
	}
	for p, n := range st.SentByPeer {
		st.Sent += n
		if p != w.id {
			st.SentRemote += n
		}
	}
	for p, n := range st.RecvByPeer {
		st.Recv += n
		if p != w.id {
			st.RecvRemote += n
		}
	}
	*reply = st
	return nil
}

// Collect returns the program's output for this worker's vertices as
// packed records (see resultLen), which gob moves as one blob.
func (w *Worker) Collect(_ struct{}, reply *[]byte) error {
	if w.dead.Load() {
		return w.down()
	}
	if w.prog == nil {
		return fmt.Errorf("rpcrt: no job on worker %d", w.id)
	}
	*reply = w.prog.collect()
	return nil
}

// Ping lets the master verify liveness.
func (w *Worker) Ping(_ struct{}, reply *int) error {
	if w.dead.Load() {
		return w.down()
	}
	*reply = w.id
	return nil
}
