package tasks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/graph"
)

// TestRestoreRejectsDamagedSnapshots takes a real engine snapshot of each
// task's program mid-job and damages one section at a time: dropped, or cut
// to every shorter length. It also forges outbox sections that are intact
// but hold a payload shorter than the codec's record or a message for a
// vertex the row's machine does not own. Restore must return an error
// wrapping ckpt.ErrCorrupt for each, and never panic: in rpcrt a panic
// there would kill the net/rpc handler and the cluster with it.
func TestRestoreRejectsDamagedSnapshots(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.4, 9)
	const k = 3
	part := graph.HashPartition(g.NumVertices(), k)
	sources := []graph.VertexID{1, 5, 9}
	t.Run("bppr", func(t *testing.T) {
		prog := NewBPPR(g, part, BPPRConfig{Alpha: 0.15, WalksPerNode: 50}).NextBatch(50)
		e := engine.New(g, part, prog, nil, snapshotOpts[WalkMsg](WalkCodec{}))
		requireCorruptRejected(t, e)
		requireForgedEndpointsRejected(t, e)
	})
	t.Run("mssp", func(t *testing.T) {
		job, err := NewMSSP(g, part, MSSPConfig{Sources: sources})
		if err != nil {
			t.Fatal(err)
		}
		prog := job.NextBatch(len(sources))
		requireCorruptRejected(t, engine.New(g, part, prog, nil, snapshotOpts[DistMsg](DistCodec{})))
	})
	t.Run("bkhs", func(t *testing.T) {
		prog, err := NewBKHS(g, part, BKHSConfig{Sources: sources, K: 3}).NextBatch(len(sources))
		if err != nil {
			t.Fatal(err)
		}
		requireCorruptRejected(t, engine.New(g, part, prog, nil, snapshotOpts[HopMsg](HopCodec{})))
	})
}

func snapshotOpts[M any](codec engine.Codec[M]) engine.Options[M] {
	return engine.Options[M]{Seed: 7, Workers: 1, Codec: codec}
}

// requireCorruptRejected steps e to a barrier with messages buffered,
// snapshots it, and restores every damaged variant of the snapshot.
func requireCorruptRejected[M any](t *testing.T, e *engine.Engine[M]) {
	t.Helper()
	for range 2 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(snap); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	restore := func(what string, damaged *ckpt.Snapshot) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%s: Restore panicked: %v", what, p)
			}
		}()
		if err := e.Restore(damaged); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("%s: Restore returned %v, want ckpt.ErrCorrupt", what, err)
		}
	}
	// forge replaces the outbox with one message, dst and its payload bytes,
	// on row (0 → 0).
	forge := func(dst graph.VertexID, payload []byte) *ckpt.Snapshot {
		k := e.Partition().NumMachines()
		out := binary.LittleEndian.AppendUint32(nil, uint32(k*k))
		out = binary.LittleEndian.AppendUint32(out, 1)
		out = binary.LittleEndian.AppendUint32(out, dst)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		for r := 1; r < k*k; r++ {
			out = binary.LittleEndian.AppendUint32(out, 0)
		}
		forged := &ckpt.Snapshot{Step: snap.Step}
		forged.Add("outbox", out)
		for _, s := range snap.Sections[1:] {
			forged.Add(s.Name, s.Data)
		}
		return forged
	}
	if err := e.Restore(forge(e.Owned(0)[0], make([]byte, 8))); err != nil {
		t.Fatalf("well-formed forged outbox: %v", err)
	}
	restore("a 2-byte payload", forge(e.Owned(0)[0], make([]byte, 2)))
	restore("a message for machine 1 on a row to machine 0", forge(e.Owned(1)[0], make([]byte, 8)))
	restore("a message for no vertex", forge(graph.VertexID(e.Graph().NumVertices()), make([]byte, 8)))
	for i, sec := range snap.Sections {
		if len(sec.Data) <= 4 {
			t.Fatalf("section %s holds only %d bytes", sec.Name, len(sec.Data))
		}
		variant := func(data []byte, drop bool) *ckpt.Snapshot {
			d := &ckpt.Snapshot{Step: snap.Step}
			for j, s := range snap.Sections {
				switch {
				case j != i:
					d.Add(s.Name, s.Data)
				case !drop:
					d.Add(s.Name, data)
				}
			}
			return d
		}
		restore(sec.Name+" missing", variant(nil, true))
		for n := 0; n < len(sec.Data); n++ {
			restore(fmt.Sprintf("%s cut to %d of %d bytes", sec.Name, n, len(sec.Data)), variant(sec.Data[:n], false))
		}
	}
}
