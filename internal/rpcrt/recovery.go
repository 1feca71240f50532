package rpcrt

import (
	"encoding/binary"
	"fmt"
	"net/rpc"
	"time"

	"vcmt/internal/ckpt"
	"vcmt/internal/obs"
	"vcmt/internal/wire"
)

// defaultRPCTimeout bounds every master->worker and worker->worker call:
// net/rpc's Client.Call blocks forever, so a hung or dead peer would
// otherwise wedge the whole cluster.
const defaultRPCTimeout = 30 * time.Second

// callTimeout is Client.Call with a deadline. d <= 0 disables the bound.
func callTimeout(cl *rpc.Client, method string, args, reply any, d time.Duration) error {
	if d <= 0 {
		return cl.Call(method, args, reply)
	}
	call := cl.Go(method, args, reply, make(chan *rpc.Call, 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case c := <-call.Done:
		return c.Error
	case <-t.C:
		return fmt.Errorf("rpcrt: %s timed out after %v", method, d)
	}
}

// Section names inside a worker snapshot, in file order. The barrier
// superstep is the snapshot's Step.
const (
	wsecInbox    = "inbox"
	wsecCounters = "counters"
	wsecProg     = "prog"
)

// ckptManager builds the worker's checkpoint manager: all workers share one
// directory, isolated by per-worker file prefixes.
func ckptManager(dir string, id int) *ckpt.Manager {
	return &ckpt.Manager{Dir: dir, Prefix: fmt.Sprintf("w%d-", id)}
}

// CkptArgs asks a worker to checkpoint its barrier state into Dir. Trace
// is the master-side checkpoint span to parent the worker's span under
// (0 = tracing off).
type CkptArgs struct {
	Dir   string
	Round int
	Trace uint64
}

// Checkpoint snapshots the worker's superstep state — the current inbox
// (the messages the next compute will consume, in delivery order), the
// conservation counters, and the hosted program's state with its RNG
// stream — into a checksummed file whose header records the barrier round.
// It replies with the bytes written. The master calls it at the barrier
// after Advance, so the pending lists and the outboxes are empty by
// construction.
func (w *Worker) Checkpoint(args CkptArgs, reply *int64) error {
	if w.dead.Load() {
		return w.down()
	}
	if w.prog == nil {
		return fmt.Errorf("rpcrt: no job on worker %d", w.id)
	}
	span := w.tracer.Begin(obs.SpanID(args.Trace), "checkpoint", "ckpt",
		workerProc(w.id), workerComputeTrack, obs.L("round", fmt.Sprint(args.Round)))
	snap := &ckpt.Snapshot{Step: args.Round}

	// The inbox reuses the runtime's wire codec as an Envelopes frame, so
	// snapshots share the delivery path's framing, versioning and
	// corruption detection. It is already flat, one run per destination;
	// restore rebuilds the offsets with the same stable sort that laid it
	// out.
	snap.Add(wsecInbox, wire.EncodeEnvelopes(nil, w.inbox))

	w.statsMu.Lock()
	ctr := make([]byte, 0, 4+len(w.sentByPeer)*16+8+32)
	ctr = binary.LittleEndian.AppendUint32(ctr, uint32(w.nPeer))
	for _, n := range w.sentByPeer {
		ctr = binary.LittleEndian.AppendUint64(ctr, uint64(n))
	}
	for _, n := range w.recvByPeer {
		ctr = binary.LittleEndian.AppendUint64(ctr, uint64(n))
	}
	ctr = binary.LittleEndian.AppendUint64(ctr, uint64(w.retries))
	// Byte/frame counters are checkpointed alongside the message counters
	// so a recovered run re-accumulates them during silent replay exactly
	// as a fault-free run would — the recovery determinism contract covers
	// exact wire bytes too.
	ctr = binary.LittleEndian.AppendUint64(ctr, uint64(w.sentBytes))
	ctr = binary.LittleEndian.AppendUint64(ctr, uint64(w.recvBytes))
	ctr = binary.LittleEndian.AppendUint64(ctr, uint64(w.sentFrames))
	ctr = binary.LittleEndian.AppendUint64(ctr, uint64(w.recvFrames))
	w.statsMu.Unlock()
	snap.Add(wsecCounters, ctr)

	prog, err := w.prog.saveState()
	if err != nil {
		return fmt.Errorf("rpcrt: worker %d saveState: %w", w.id, err)
	}
	snap.Add(wsecProg, prog)

	bytes, err := ckptManager(args.Dir, w.id).Save(snap)
	if err != nil {
		w.tracer.End(span, obs.L("error", err.Error()))
		return fmt.Errorf("rpcrt: worker %d checkpoint: %w", w.id, err)
	}
	w.tracer.End(span, obs.L("bytes", fmt.Sprint(bytes)))
	*reply = bytes
	return nil
}

// RestoreArgs asks a worker to reload its latest checkpoint from Dir.
// Trace is the master-side recovery span to parent the worker's restore
// span under (0 = tracing off).
type RestoreArgs struct {
	Dir   string
	Trace uint64
}

// Restore rolls the worker back to its latest checkpoint: pending and
// outboxes are discarded (they belong to the crashed superstep), the
// current inbox, counters and program state are reloaded. The master
// re-broadcasts StartJob first, so restarted and surviving workers restore
// through the same code path.
func (w *Worker) Restore(args RestoreArgs, _ *struct{}) error {
	if w.dead.Load() {
		return w.down()
	}
	if w.prog == nil {
		return fmt.Errorf("rpcrt: no job on worker %d", w.id)
	}
	span := w.tracer.Begin(obs.SpanID(args.Trace), "restore", "ckpt",
		workerProc(w.id), workerComputeTrack)
	defer w.tracer.End(span)
	snap, _, err := ckptManager(args.Dir, w.id).Latest()
	if err != nil {
		return fmt.Errorf("rpcrt: worker %d restore: %w", w.id, err)
	}
	if snap == nil {
		return fmt.Errorf("rpcrt: worker %d restore: no checkpoint in %s", w.id, args.Dir)
	}
	w.round = snap.Step

	w.reset()
	flat, err := wire.DecodeEnvelopes(snap.Get(wsecInbox), nil)
	if err == nil {
		err = w.checkOwned(flat)
	}
	if err != nil {
		return fmt.Errorf("rpcrt: worker %d restore inbox: %w", w.id, err)
	}
	w.arrange([][]Message{flat})

	ctr := snap.Get(wsecCounters)
	if want := 4 + w.nPeer*16 + 8 + 32; len(ctr) != want {
		return fmt.Errorf("rpcrt: worker %d restore: counters section is %d bytes, want %d", w.id, len(ctr), want)
	}
	if got := int(binary.LittleEndian.Uint32(ctr)); got != w.nPeer {
		return fmt.Errorf("rpcrt: worker %d restore: snapshot has %d peers, cluster has %d", w.id, got, w.nPeer)
	}
	ctr = ctr[4:]
	w.statsMu.Lock()
	for p := range w.sentByPeer {
		w.sentByPeer[p] = int64(binary.LittleEndian.Uint64(ctr))
		ctr = ctr[8:]
	}
	for p := range w.recvByPeer {
		w.recvByPeer[p] = int64(binary.LittleEndian.Uint64(ctr))
		ctr = ctr[8:]
	}
	w.retries = int64(binary.LittleEndian.Uint64(ctr))
	w.sentBytes = int64(binary.LittleEndian.Uint64(ctr[8:]))
	w.recvBytes = int64(binary.LittleEndian.Uint64(ctr[16:]))
	w.sentFrames = int64(binary.LittleEndian.Uint64(ctr[24:]))
	w.recvFrames = int64(binary.LittleEndian.Uint64(ctr[32:]))
	w.statsMu.Unlock()

	if err := w.prog.loadState(snap.Get(wsecProg)); err != nil {
		return fmt.Errorf("rpcrt: worker %d loadState: %w", w.id, err)
	}
	return nil
}

// ReconnectArgs tells a worker that peer Peer now listens at Addr.
type ReconnectArgs struct {
	Peer int
	Addr string
}

// Reconnect re-dials a restarted peer.
func (w *Worker) Reconnect(args ReconnectArgs, _ *struct{}) error {
	if w.dead.Load() {
		return w.down()
	}
	if args.Peer < 0 || args.Peer >= len(w.peers) {
		return fmt.Errorf("rpcrt: reconnect to unknown peer %d", args.Peer)
	}
	if old := w.peers[args.Peer]; old != nil {
		old.Close()
	}
	cl, err := rpc.Dial("tcp", args.Addr)
	if err != nil {
		return fmt.Errorf("rpcrt: worker %d redial peer %d: %w", w.id, args.Peer, err)
	}
	w.peers[args.Peer] = cl
	return nil
}
