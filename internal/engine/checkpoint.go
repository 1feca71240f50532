package engine

import (
	"encoding/binary"
	"fmt"

	"vcmt/internal/ckpt"
	"vcmt/internal/rec"
	"vcmt/internal/vcapi"
)

// CheckpointOptions enables periodic superstep checkpointing. At each
// barrier whose round number is 1 or a multiple of Interval, the engine
// snapshots everything the next superstep depends on — buffered outboxes,
// per-machine RNG streams and program state — into a checksummed ckpt file
// whose header records the round, a delta where ckpt.Manager.Cut asks.
// Combined with an injected fault.Plan, a crashed superstep rolls back to
// the latest checkpoint and replays forward; the determinism contract
// (machine-ordered merges, per-machine RNG lanes) makes the replayed run
// bit-for-bit identical to an unfaulted one.
type CheckpointOptions[M any] struct {
	// Codec serializes outbox payloads.
	Codec Codec[M]
	// Dir receives the checkpoint files; created if missing.
	Dir string
	// Interval is the number of supersteps between checkpoints (default 8).
	// The barrier after superstep 1 is always checkpointed so any injected
	// crash at step >= 2 is recoverable.
	Interval int
}

// Section names inside an engine snapshot, in file order. The round is the
// snapshot's Step.
const (
	secOutbox = "outbox"
	secRNG    = "rng"
	secProg   = "prog"
)

// Recoveries returns how many injected crashes this engine recovered from.
func (e *Engine[M]) Recoveries() int { return e.recoveries }

// initCheckpoints validates the checkpoint/fault configuration before the
// first superstep runs.
func (e *Engine[M]) initCheckpoints() error {
	co := e.opts.Checkpoint
	if co == nil {
		return nil
	}
	if co.Codec == nil {
		return fmt.Errorf("engine: checkpointing requires a Codec")
	}
	if co.Dir == "" {
		return fmt.Errorf("engine: checkpointing requires a Dir")
	}
	if co.Interval <= 0 {
		co.Interval = 8
	}
	if _, ok := e.prog.(StateSnapshotter); !ok {
		return fmt.Errorf("engine: checkpointing requires the program to implement vcapi.StateSnapshotter")
	}
	e.ckptMgr = &ckpt.Manager{Dir: co.Dir}
	e.lastCkptRounds = -1
	return nil
}

// maybeCheckpoint cuts a checkpoint at the current barrier when the round
// matches the interval. Replayed rounds (rounds <= replayTo) never re-cut:
// their checkpoints already exist and re-pricing them would desynchronize
// the cost accounting from an unfaulted run.
func (e *Engine[M]) maybeCheckpoint() error {
	co := e.opts.Checkpoint
	if co == nil || e.rounds <= e.replayTo || e.rounds == e.lastCkptRounds {
		return nil
	}
	if e.rounds != 1 && e.rounds%co.Interval != 0 {
		return nil
	}
	bytes, _, err := e.ckptMgr.Cut(e.SnapshotDelta)
	if err != nil {
		return fmt.Errorf("engine: checkpoint at round %d: %w", e.rounds, err)
	}
	e.lastCkptRounds = e.rounds
	if e.run != nil {
		e.run.ObserveCheckpoint(e.rounds, bytes)
		e.ckptSimSeconds = e.run.Seconds()
	}
	return nil
}

// crashPending consults the fault plan for a crash injected at the
// superstep about to execute (the loop is at the barrier after e.rounds
// completed supersteps, so the next one is e.rounds+1). It returns the
// crashed machine alongside the verdict: CrashAtStep consumes the one-shot
// event, so this single call is the only chance to learn which machine the
// plan named.
func (e *Engine[M]) crashPending() (int, bool) {
	if e.opts.Fault == nil {
		return 0, false
	}
	return e.opts.Fault.CrashAtStep(e.rounds + 1)
}

// recoverFromCheckpoint reloads the latest checkpoint, prices the recovery
// (restart + reload of every link of its chain + the simulated time of the
// lost supersteps), and arms silent replay: supersteps up to the pre-crash
// round re-execute without re-reporting to the sim.Run, so the final report
// contains every round exactly once — identical to an unfaulted run.
func (e *Engine[M]) recoverFromCheckpoint() error {
	if e.opts.Checkpoint == nil {
		return fmt.Errorf("engine: crash injected at round %d but checkpointing is not configured", e.rounds+1)
	}
	snap, _, err := e.ckptMgr.Latest()
	if err != nil {
		return fmt.Errorf("engine: recovery: %w", err)
	}
	if snap == nil {
		return fmt.Errorf("engine: crash at round %d with no checkpoint on disk", e.rounds+1)
	}
	crashRounds := e.rounds
	var lostSeconds float64
	if e.run != nil {
		lostSeconds = e.run.Seconds() - e.ckptSimSeconds
	}
	if err := e.Restore(snap); err != nil {
		return fmt.Errorf("engine: recovery: %w", err)
	}
	if e.run != nil {
		var reload int64
		for at := snap; at != nil; at = at.Prev {
			reload += at.Len()
		}
		e.run.ObserveRecovery(e.rounds, crashRounds-e.rounds, reload, lostSeconds)
	}
	if crashRounds > e.replayTo {
		e.replayTo = crashRounds
	}
	e.recoveries++
	return nil
}

// Snapshot captures the barrier state, payloads encoded by the checkpoint
// Codec, in the outbox, rng and prog sections of a base checkpoint whose
// Step is the round.
// Everything the next superstep reads is included; per-round scratch
// (inbox, counters) is empty at a barrier and is not. A machine engine's
// rows hold its own sends and the messages landed on it, so its snapshot is
// the full engine's restricted to its machine. The sections are sub-slices
// of one engine-lifetime buffer, valid until the next snapshot.
func (e *Engine[M]) Snapshot() (*ckpt.Snapshot, error) { return e.SnapshotDelta(-1) }

// SnapshotDelta, a ckpt.Manager.Cut builder, is Snapshot with prog as the
// program's vcapi.DeltaSnapshotter delta since step parent, the engine's
// last snapshot or restore, when parent >= 0 and the program makes one.
func (e *Engine[M]) SnapshotDelta(parent int) (*ckpt.Snapshot, error) {
	k, codec := e.k, e.opts.Checkpoint.Codec

	// Outbox rows are serialized as the engine holds them, row by row, so
	// restore repopulates the identical routing layout. Payloads are encoded
	// in place; their length words are patched after.
	buf := binary.LittleEndian.AppendUint32(e.snapBuf[:0], uint32(len(e.outRows)))
	for r := range e.outRows {
		row := &e.outRows[r]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(row.n))
		for ci := range row.chunks {
			for _, env := range row.filled(ci) {
				buf = binary.LittleEndian.AppendUint32(buf, env.dst)
				at := len(buf)
				buf = codec.Encode(append(buf, 0, 0, 0, 0), env.payload)
				binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
			}
		}
	}
	outEnd := len(buf)

	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	for m := 0; m < k; m++ {
		buf = binary.LittleEndian.AppendUint64(buf, e.rngs[m].State())
	}
	rngEnd := len(buf)

	var err error
	if ds, ok := e.prog.(vcapi.DeltaSnapshotter); ok && parent >= 0 {
		buf, err = ds.AppendDelta(buf)
	} else {
		parent = -1
		buf, err = e.prog.(StateSnapshotter).AppendState(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("program snapshot: %w", err)
	}
	progEnd := len(buf)
	snap := &ckpt.Snapshot{Step: e.rounds, Sections: []ckpt.Section{
		{Name: secOutbox, Data: buf[:outEnd:outEnd]},
		{Name: secRNG, Data: buf[outEnd:rngEnd:rngEnd]},
		{Name: secProg, Data: buf[rngEnd:progEnd:progEnd]},
	}}
	if parent >= 0 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(parent))
		snap.Add(ckpt.ParentSection, buf[progEnd:])
	}
	e.snapBuf = buf
	return snap, nil
}

// Restore rolls every piece of volatile superstep state back to the barrier
// a Snapshot or SnapshotDelta with the same checkpoint Codec captured, a
// delta through the chain ckpt.Manager.Latest links behind it. A section
// that does not fit the engine — missing, truncated, sized for another
// machine count or addressed to another machine's vertex — or a broken
// chain is an error wrapping ckpt.ErrCorrupt, as the program's loads report
// their own; the engine's state is then undefined until the next Reset.
func (e *Engine[M]) Restore(snap *ckpt.Snapshot) error {
	k, codec := e.k, e.opts.Checkpoint.Codec
	rng := rec.NewCursor(snap.Get(secRNG), ckpt.ErrCorrupt)
	if int(rng.U32()) != k || rng.Len() != 8*k {
		return rng.Fail("snapshot rng section does not hold %d machines", k)
	}
	out := rec.NewCursor(snap.Get(secOutbox), ckpt.ErrCorrupt)
	if int(out.U32()) != len(e.outRows) {
		return out.Fail("snapshot outbox section does not hold the engine's %d rows", len(e.outRows))
	}
	clear(e.owed)
	for r := range e.outRows {
		n := out.U32()
		row := &e.outRows[r]
		row.release()
		for range n {
			dst := out.U32()
			payload := out.Bytes(uint64(out.U32()))
			if err := out.Err(); err != nil {
				return err
			}
			if int(dst) >= len(e.owners) || int(e.owners[dst]) != r%k {
				return out.Fail("snapshot outbox row %d holds a message for vertex %d", r, dst)
			}
			msg, used := codec.Decode(payload)
			if used != len(payload) {
				return out.Fail("snapshot outbox payload decoded %d of %d bytes", used, len(payload))
			}
			row.push(envelope[M]{dst: dst, payload: msg})
		}
		e.owed[r/k] += int64(n)
	}
	if err := out.Done(); err != nil {
		return err
	}
	e.rounds = snap.Step

	for m := 0; m < k; m++ {
		e.rngs[m].SetState(rng.U64())
	}

	return e.loadProg(snap)
}

// loadProg restores snap's program state, a delta's on its chain's.
func (e *Engine[M]) loadProg(snap *ckpt.Snapshot) error {
	parent, err := snap.Parent()
	ds, _ := e.prog.(vcapi.DeltaSnapshotter)
	switch {
	case err != nil:
	case parent < 0:
		err = e.prog.(StateSnapshotter).LoadState(snap.Get(secProg))
	case snap.Prev == nil || snap.Prev.Step != parent || ds == nil:
		err = rec.Errorf(ckpt.ErrCorrupt, "a delta without a chain the program loads")
	default:
		if err = e.loadProg(snap.Prev); err == nil {
			err = ds.LoadDelta(snap.Get(secProg))
		}
	}
	if err != nil {
		return fmt.Errorf("program state of step %d: %w", snap.Step, err)
	}
	return nil
}
