package rpcrt

import (
	"encoding/binary"
	"fmt"
	"net/rpc"
	"time"

	"vcmt/internal/ckpt"
	"vcmt/internal/obs"
	"vcmt/internal/rec"
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

// wsecCounters is the section a worker snapshot adds after its engine's
// outbox, rng and prog sections. The barrier superstep is the snapshot's
// Step.
const wsecCounters = "counters"

// counters lists, in the counters section's order after the peer count,
// every counter a recovered run resumes from: per-peer sends and receipts,
// retries, and the wire byte and frame counts, so silent replay
// re-accumulates exact wire bytes too. The caller holds statsMu.
func (w *Worker) counters() []*int64 {
	var cs []*int64
	for p := range w.sentByPeer {
		cs = append(cs, &w.sentByPeer[p])
	}
	for p := range w.recvByPeer {
		cs = append(cs, &w.recvByPeer[p])
	}
	return append(cs, &w.retries, &w.sentBytes, &w.recvBytes, &w.sentFrames, &w.recvFrames)
}

// ckptManager builds a worker's checkpoint manager: all workers share one
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

// Checkpoint snapshots the worker's barrier state — its machine engine's
// snapshot (the rows the next superstep delivers, the RNG streams, the
// program state, a delta of the job's previous checkpoint where the program
// makes one) plus the conservation counters — into a checksummed file whose
// header records the barrier round. It replies with the bytes written. The
// master calls it at the barrier, when every peer's frames of the superstep
// have landed.
func (w *Worker) Checkpoint(args CkptArgs, reply *int64) error {
	if w.dead.Load() {
		return w.down()
	}
	if w.prog == nil {
		return fmt.Errorf("rpcrt: no job on worker %d", w.id)
	}
	span := w.tracer.Begin(obs.SpanID(args.Trace), "checkpoint", "ckpt",
		workerProc(w.id), workerComputeTrack, obs.L("round", fmt.Sprint(args.Round)))
	// The snapshot's sections alias the engine's buffer until its next
	// snapshot, so the lock covers the write as well.
	w.mu.Lock()
	defer w.mu.Unlock()
	w.statsMu.Lock()
	ctr := binary.LittleEndian.AppendUint32(nil, uint32(w.nPeer))
	for _, c := range w.counters() {
		ctr = binary.LittleEndian.AppendUint64(ctr, uint64(*c))
	}
	w.statsMu.Unlock()

	if w.ckptMgr == nil {
		w.ckptMgr = ckptManager(args.Dir, w.id)
	}
	bytes, delta, err := w.ckptMgr.Cut(func(parent int) (*ckpt.Snapshot, error) {
		snap, err := w.prog.snapshot(parent)
		if err == nil {
			snap.Add(wsecCounters, ctr)
		}
		return snap, err
	})
	if err != nil {
		w.tracer.End(span, obs.L("error", err.Error()))
		return fmt.Errorf("rpcrt: worker %d checkpoint: %w", w.id, err)
	}
	kind := "base"
	if delta {
		kind = "delta"
	}
	w.tracer.End(span, obs.L("kind", kind), obs.L("bytes", fmt.Sprint(bytes)))
	*reply = bytes
	return nil
}

// restore rolls the job StartJob has just installed back to the worker's
// latest checkpoint in dir: the engine's barrier state, through the chain
// the job's next checkpoint extends, and the counters are reloaded, and the
// worker resumes at the snapshot's barrier superstep.
// Recovery restores restarted and surviving workers alike, so whatever the
// crashed superstep left on a survivor is discarded with the job it
// belonged to. The caller holds w.mu.
func (w *Worker) restore(dir string, parent obs.SpanID) error {
	span := w.tracer.Begin(parent, "restore", "ckpt", workerProc(w.id), workerComputeTrack)
	defer w.tracer.End(span)
	mgr := ckptManager(dir, w.id)
	snap, _, err := mgr.Latest()
	if err != nil {
		return fmt.Errorf("rpcrt: worker %d restore: %w", w.id, err)
	}
	if snap == nil {
		return fmt.Errorf("rpcrt: worker %d restore: no checkpoint in %s", w.id, dir)
	}
	ctr := rec.NewCursor(snap.Get(wsecCounters), ckpt.ErrCorrupt)
	w.statsMu.Lock()
	cs := w.counters()
	if int(ctr.U32()) != w.nPeer || ctr.Len() != 8*len(cs) {
		w.statsMu.Unlock()
		return fmt.Errorf("rpcrt: worker %d restore: %w", w.id, ctr.Fail("a counters section does not fit %d peers", w.nPeer))
	}
	for _, c := range cs {
		*c = int64(ctr.U64())
	}
	w.statsMu.Unlock()
	if err := w.prog.restore(snap); err != nil {
		return fmt.Errorf("rpcrt: worker %d restore: %w", w.id, err)
	}
	w.ckptMgr = mgr
	w.stepped = snap.Step
	return nil
}
