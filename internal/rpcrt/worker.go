// Package rpcrt is a real distributed vertex-centric runtime: worker
// processes (goroutines in-process, but fully isolated behind net/rpc over
// TCP loopback with gob serialization) each own a hash partition of the
// vertices; a master drives BSP supersteps — compute, worker-to-worker
// message exchange, barrier, advance — exactly the execution model of
// Pregel/Pregel+ (§2.1). It complements the simulated cluster: the
// simulator measures and prices paper-scale runs, while rpcrt demonstrates
// the same programming contract end-to-end with real sockets, real
// serialization and real barriers.
//
// A worker is one more vcapi executor (host.go): it runs the internal/tasks
// vertex programs the engine runs, as machine = worker id of
// graph.HashPartition(n, k), and hands every vertex its messages in the
// engine's delivery order, so a cluster job is bit-identical to an engine
// run of the same job.
package rpcrt

import (
	"fmt"
	"net"
	"net/rpc"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/wire"
)

// Message is the wire message: a (source, value) pair addressed to a
// vertex, sufficient for the paper's benchmark tasks (distances, hop
// counts, walk counts). It aliases wire.Envelope so the delivery path
// encodes program messages directly into binary frames with no
// conversion or copy.
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

// ResultEntry is one unit of program output returned by Collect: Val at
// (Row, V). Row indexes JobSpec.Sources for mssp (Val = V's distance) and
// bkhs (Val = the worker's reach count, V unused); for bppr it is the source
// vertex (Val = its walks that stopped at V).
type ResultEntry struct {
	Row uint32
	V   graph.VertexID
	Val float64
}

// hosted is the worker's type-erased view of the program it hosts (see
// host). saveState and loadState are the checkpoint contract: deterministic
// bytes capturing all cross-round program state (including the RNG stream),
// so a restored worker replays bit-for-bit.
type hosted interface {
	seed()
	compute(v graph.VertexID, msgs []Message)
	collect() []ResultEntry
	saveState() ([]byte, error)
	loadState(data []byte) error
}

// Byte counters measure the exact encoded size of the internal/wire
// delivery frames: senders count each frame once at encode time, receivers
// count each successfully decoded frame, so sent and received bytes are
// conserved across the cluster. (The delivery payload used to ride inside
// gob, whose per-connection type framing made observed sizes unstable —
// the first value on a connection encodes larger than every later one —
// which forced a fixed-rate estimate; the binary codec's sizes are pure
// functions of the message values, so the counters are now exact and
// deterministic.)

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
	owned []graph.VertexID
	// rank[v] is v's index in owned, -1 for a vertex another worker owns.
	rank []int32

	// pending[p] holds the next superstep's messages from worker p in
	// arrival order, which is p's emission order: p pushes its frames one
	// at a time. Advance merges the lists into inbox, where owned[i]'s
	// messages are inbox[offs[i]:offs[i+1]]; cur is the merge's cursor
	// scratch.
	mu      sync.Mutex
	pending [][]Message
	inbox   []Message
	offs    []int32
	cur     []int32
	sc      *sendCtx
	prog    hosted

	statsMu    sync.Mutex
	sentByPeer []int64
	recvByPeer []int64
	retries    int64
	sentBytes  int64 // exact wire bytes of delivery frames encoded
	recvBytes  int64 // exact wire bytes of delivery frames decoded
	sentFrames int64
	recvFrames int64

	// roundBytes accumulates the wire bytes of the frames encoded during
	// the current Seed/ComputeRound call (handler goroutine only).
	roundBytes int64

	// tracer records this worker's spans (nil = tracing off). curSpan is
	// the span of the Seed/ComputeRound call currently executing — it is
	// stamped into outgoing Deliver frames as the wire trace context, so
	// receiver-side spans parent under the sending worker's compute span.
	// Handler goroutine only, like roundBytes.
	tracer  *obs.Tracer
	curSpan obs.SpanID

	// round is the superstep currently executing (1 = seed); the master
	// passes it to ComputeRound so fault-plan steps line up with the
	// engine's superstep numbering.
	round int
	// fplan injects deterministic faults (nil = none).
	fplan *fault.Plan
	// dead marks a crashed worker: its listener is closed, but already-open
	// gob connections keep serving, so every RPC method checks the flag.
	dead atomic.Bool
	// rpcTimeout bounds this worker's peer Deliver calls.
	rpcTimeout time.Duration

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

// die marks the worker crashed and closes its listener. Existing
// connections drain through the dead-flag checks.
func (w *Worker) die() {
	w.dead.Store(true)
	if w.listener != nil {
		w.listener.Close()
	}
}

// sendCtx buffers one superstep's sends — per-peer outboxes, local
// deliveries and counters — so a send takes no lock; exchange folds them
// into the worker when the superstep's compute ends.
type sendCtx struct {
	w          *Worker
	sent       int64
	sentByPeer []int64
	local      []Message
	outbox     [][]Message
}

// send routes a message into the buffers: local destinations to the local
// batch, remote ones to the per-peer outbox.
func (sc *sendCtx) send(m Message) {
	sc.sent++
	o := sc.w.part.Owner(m.Dst)
	sc.sentByPeer[o]++
	if o == sc.w.id {
		sc.local = append(sc.local, m)
		return
	}
	sc.outbox[o] = append(sc.outbox[o], m)
}

// exchange ends a superstep's compute: the send counters and the local
// deliveries fold into the worker, the per-peer outboxes go out as Deliver
// frames.
func (w *Worker) exchange() error {
	sc := w.sc
	w.statsMu.Lock()
	for p, n := range sc.sentByPeer {
		w.sentByPeer[p] += n
		sc.sentByPeer[p] = 0
	}
	w.recvByPeer[w.id] += int64(len(sc.local))
	w.statsMu.Unlock()
	w.mu.Lock()
	w.pending[w.id] = append(w.pending[w.id], sc.local...)
	w.mu.Unlock()
	sc.local = sc.local[:0]
	return w.flushOutboxes()
}

// newWorker builds the service for machine id of part.
func newWorker(id int, part *graph.Partition, g *graph.Graph) *Worker {
	k := part.NumMachines()
	w := &Worker{
		id: id, nPeer: k, g: g, part: part,
		rank:       make([]int32, g.NumVertices()),
		pending:    make([][]Message, k),
		sentByPeer: make([]int64, k),
		recvByPeer: make([]int64, k),
		rpcTimeout: defaultRPCTimeout,
	}
	w.sc = &sendCtx{w: w, sentByPeer: make([]int64, k), outbox: make([][]Message, k)}
	for v := range w.rank {
		w.rank[v] = -1
		if part.Owner(graph.VertexID(v)) == id {
			w.rank[v] = int32(len(w.owned))
			w.owned = append(w.owned, graph.VertexID(v))
		}
	}
	w.offs = make([]int32, len(w.owned)+1)
	w.cur = make([]int32, len(w.owned))
	return w
}

// reset drops every buffered message: the pending lists, the inbox and the
// send buffers (a job start, or a rollback that abandons a superstep).
func (w *Worker) reset() {
	w.mu.Lock()
	for p := range w.pending {
		w.pending[p] = w.pending[p][:0]
	}
	w.mu.Unlock()
	w.arrange(nil)
	sc := w.sc
	sc.sent, sc.local = 0, sc.local[:0]
	for p := range sc.outbox {
		sc.outbox[p], sc.sentByPeer[p] = sc.outbox[p][:0], 0
	}
}

// checkOwned rejects a batch that addresses a vertex this worker does not
// own: such a message has no inbox segment to land in.
func (w *Worker) checkOwned(batch []Message) error {
	for _, m := range batch {
		if int(m.Dst) >= len(w.rank) || w.rank[m.Dst] < 0 {
			return fmt.Errorf("message for vertex %d, which worker %d does not own", m.Dst, w.id)
		}
	}
	return nil
}

// arrange lays the messages of lists out as the current inbox with a stable
// counting sort over the destination's rank: a vertex's messages keep list
// order, then position within the list. Over the per-sender pending lists
// that is (sender, emission) order — the order in which the engine delivers
// to a vertex, which is what makes a cluster run bit-identical to an engine
// run. Every destination must be owned (see checkOwned).
func (w *Worker) arrange(lists [][]Message) {
	total := 0
	clear(w.cur)
	for _, list := range lists {
		total += len(list)
		for _, m := range list {
			w.cur[w.rank[m.Dst]]++
		}
	}
	for i, n := range w.cur {
		w.offs[i+1] = w.offs[i] + n
	}
	copy(w.cur, w.offs)
	w.inbox = slices.Grow(w.inbox[:0], total)[:total]
	for _, list := range lists {
		for _, m := range list {
			r := w.rank[m.Dst]
			w.inbox[w.cur[r]] = m
			w.cur[r]++
		}
	}
}

// StartJobArgs configures a job on a worker.
type StartJobArgs struct {
	Spec JobSpec
}

// StartJob installs the program and clears per-job state. Seeding happens
// in a separate Seed phase so that no worker can deliver messages into a
// peer that has not reset yet.
func (w *Worker) StartJob(args StartJobArgs, _ *struct{}) error {
	if w.dead.Load() {
		return w.down()
	}
	w.reset()
	w.statsMu.Lock()
	w.sentByPeer = make([]int64, w.nPeer)
	w.recvByPeer = make([]int64, w.nPeer)
	w.retries = 0
	w.sentBytes = 0
	w.recvBytes = 0
	w.sentFrames = 0
	w.recvFrames = 0
	w.statsMu.Unlock()
	w.roundBytes = 0
	var err error
	switch args.Spec.Program {
	case "mssp":
		w.prog, err = hostMSSP(w, args.Spec)
	case "bkhs":
		w.prog, err = hostBKHS(w, args.Spec)
	case "bppr":
		w.prog = hostBPPR(w, args.Spec)
	default:
		err = fmt.Errorf("rpcrt: unknown program %q", args.Spec.Program)
	}
	return err
}

// RoundReply is a worker's reply to Seed and ComputeRound: the messages it
// sent this superstep and the exact encoded bytes of the delivery frames
// it pushed to remote peers (0 when every destination was local).
type RoundReply struct {
	Msgs      int64
	WireBytes int64
}

// SeedArgs carries the master's trace context for the seed superstep:
// Trace is the span id of the master-side RPC span this seed call should
// parent under (0 = tracing off).
type SeedArgs struct {
	Trace uint64
}

// Seed runs the program's seed phase (superstep 1) and exchanges the
// initial messages; it replies with the superstep's message and wire-byte
// counts.
func (w *Worker) Seed(args SeedArgs, reply *RoundReply) error {
	if w.dead.Load() {
		return w.down()
	}
	if w.prog == nil {
		return fmt.Errorf("rpcrt: no job started on worker %d", w.id)
	}
	w.round = 1
	w.sc.sent = 0
	w.roundBytes = 0
	w.curSpan = w.tracer.Begin(obs.SpanID(args.Trace), "seed", "worker",
		workerProc(w.id), workerComputeTrack)
	w.prog.seed()
	return w.endRound(w.exchange(), reply)
}

// endRound closes the superstep's span after the exchange and fills in the
// reply.
func (w *Worker) endRound(err error, reply *RoundReply) error {
	if err != nil {
		w.tracer.End(w.curSpan, obs.L("error", err.Error()))
	} else {
		w.tracer.End(w.curSpan, obs.L("msgs", fmt.Sprint(w.sc.sent)))
		*reply = RoundReply{Msgs: w.sc.sent, WireBytes: w.roundBytes}
	}
	w.curSpan = 0
	return err
}

// Advance moves pending messages into the current inbox (the barrier's
// superstep boundary). Must only be called when no peer is mid-exchange.
// The peers' deliveries interleave nondeterministically, but only across
// senders: merging the per-sender lists in sender order (see arrange) makes
// the inbox a pure function of what was sent.
func (w *Worker) Advance(_ struct{}, _ *struct{}) error {
	if w.dead.Load() {
		return w.down()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.arrange(w.pending)
	for p := range w.pending {
		w.pending[p] = w.pending[p][:0]
	}
	return nil
}

// ComputeRoundArgs carries the superstep number being computed, aligning
// injected faults with the engine's superstep numbering (seed = 1), and the
// master's trace context (the span id of the master-side RPC span, 0 when
// tracing is off).
type ComputeRoundArgs struct {
	Round int
	Trace uint64
}

// Perfetto row assignment: the master is process 0 (job/superstep spans on
// track 0, per-worker RPC spans on track 1+i); worker i is process 1+i,
// with its compute/seed spans on track 0 and frames received from worker j
// on track 1+j.
func workerProc(id int) int { return 1 + id }

const workerComputeTrack = 0

func workerRecvTrack(from int) int { return 1 + from }

// ComputeRound runs the vertex program over every vertex with messages, in
// vertex order like an engine machine, and exchanges the generated messages
// with peers. It replies with the superstep's message and wire-byte counts.
// One goroutine computes: the hosted programs keep per-machine scratch, and
// sharding the inbox measured no gain (DESIGN.md §7) — add workers, not
// shards.
//
// Fault injection happens here: a planned crash kills the worker before any
// compute, a delay sleeps before computing, and a slowdown stretches the
// round's wall time by the planned factor.
func (w *Worker) ComputeRound(args ComputeRoundArgs, reply *RoundReply) error {
	if w.dead.Load() {
		return w.down()
	}
	if w.prog == nil {
		return fmt.Errorf("rpcrt: no job started on worker %d", w.id)
	}
	w.round = args.Round
	w.roundBytes = 0
	w.curSpan = w.tracer.Begin(obs.SpanID(args.Trace), "compute", "worker",
		workerProc(w.id), workerComputeTrack, obs.L("round", fmt.Sprint(args.Round)))
	if w.fplan.Crash(w.id, args.Round) {
		w.die()
		return w.endRound(fmt.Errorf("rpcrt: worker %d: injected crash at superstep %d", w.id, args.Round), reply)
	}
	if d := w.fplan.Delay(w.id, args.Round); d > 0 {
		time.Sleep(d)
	}
	start := time.Now()
	w.sc.sent = 0
	for i, v := range w.owned {
		if lo, hi := w.offs[i], w.offs[i+1]; lo < hi {
			w.prog.compute(v, w.inbox[lo:hi])
		}
	}
	err := w.exchange()
	if f := w.fplan.SlowFactor(w.id, args.Round); err == nil && f > 1 {
		time.Sleep(time.Duration(float64(time.Since(start)) * (f - 1)))
	}
	return w.endRound(err, reply)
}

// deliverAttempts bounds the per-peer delivery retries; backoff doubles
// from deliverBackoff between attempts.
const (
	deliverAttempts = 3
	deliverBackoff  = 5 * time.Millisecond
)

// flushOutboxes coalesces each peer's outbox into packed binary Deliver
// frames — at most wire.MaxDeliverEnvelopes per frame — encoded into
// pooled buffers, and pushes them over the peer RPC connections. One RPC
// carries a whole chunk of envelopes, not N gob-encoded structs. Each
// frame's exact encoded size is counted once, at encode time, so a
// dropped-and-retried delivery (which re-sends the identical frame) stays
// invisible in the byte counters, mirroring the message counters.
//
// Buffer recycling is safe because callTimeout issues the RPC via
// Client.Go, which gob-encodes the arguments synchronously before
// returning: by the time deliverWithRetry comes back, net/rpc no longer
// references the frame.
func (w *Worker) flushOutboxes() error {
	for p, box := range w.sc.outbox {
		if len(box) == 0 {
			continue
		}
		for lo := 0; lo < len(box); lo += wire.MaxDeliverEnvelopes {
			hi := lo + wire.MaxDeliverEnvelopes
			if hi > len(box) {
				hi = len(box)
			}
			buf := wire.GetBuf()
			frame := wire.EncodeDeliver((*buf)[:0], w.id, w.round, wire.TraceContext(w.curSpan), box[lo:hi])
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
				return fmt.Errorf("rpcrt: worker %d -> %d deliver: %w", w.id, p, err)
			}
		}
		w.sc.outbox[p] = box[:0]
	}
	return nil
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

// Deliver decodes a delivery frame from a peer onto that peer's pending
// list. The frame is decoded in full before any message is applied: a
// corrupt frame is rejected wholesale with an error wrapping wire.ErrCorrupt
// — and one from an unknown sender or for a vertex owned elsewhere with a
// plain error — and leaves the inbox and counters untouched.
func (w *Worker) Deliver(args DeliverArgs, _ *struct{}) error {
	if w.dead.Load() {
		return w.down()
	}
	sl := wire.GetEnvelopes()
	h, batch, err := wire.DecodeDeliver(args.Frame, (*sl)[:0])
	*sl = batch[:0] // keep the (possibly grown) backing array for the pool
	defer wire.PutEnvelopes(sl)
	if err == nil && (h.From < 0 || h.From >= w.nPeer) {
		err = fmt.Errorf("frame from unknown worker %d", h.From)
	}
	if err == nil {
		err = w.checkOwned(batch)
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
	w.pending[h.From] = append(w.pending[h.From], batch...)
	w.mu.Unlock()
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

// Collect returns the program's output entries for this worker's vertices.
func (w *Worker) Collect(_ struct{}, reply *[]ResultEntry) error {
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
