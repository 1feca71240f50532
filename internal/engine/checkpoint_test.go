package engine

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcmt/internal/ckpt"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
)

// snapBFS extends the BFS test program with state snapshotting so it can be
// checkpointed.
type snapBFS struct{ *bfsProg }

func (p snapBFS) AppendState(buf []byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.dist)))
	for _, d := range p.dist {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(d)))
	}
	return buf, nil
}

func (p snapBFS) LoadState(data []byte) error {
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	for i := 0; i < n; i++ {
		p.dist[i] = int(int64(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return nil
}

// hopMsgCodec serializes the test hop message for checkpointed outboxes.
type hopMsgCodec struct{}

func (hopMsgCodec) Encode(buf []byte, m hopMsg) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(m.Hop))
	return append(buf, b[:]...)
}

func (hopMsgCodec) Decode(data []byte) (hopMsg, int) {
	return hopMsg{Hop: int32(binary.LittleEndian.Uint32(data[:4]))}, 4
}

// runSnapBFS runs BFS on a ring with checkpointing enabled and an optional
// fault plan, returning the program and the run's result.
func runSnapBFS(t *testing.T, dir string, plan *fault.Plan) (*bfsProg, sim.JobResult, *Engine[hopMsg]) {
	t.Helper()
	g := graph.GenerateRing(24)
	part := graph.HashPartition(g.NumVertices(), 3)
	prog := newBFS(g.NumVertices(), 0)
	run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(3), System: sim.PregelPlus})
	e := New[hopMsg](g, part, snapBFS{prog}, run, Options[hopMsg]{
		Seed:  1,
		Fault: plan,
		Codec: hopMsgCodec{},
		Checkpoint: &CheckpointOptions{
			Dir:      dir,
			Interval: 2,
		},
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return prog, run.Result(), e
}

func TestCrashRecoveryMatchesUnfaulted(t *testing.T) {
	// Both runs share one directory: the unfaulted run leaves its round-14
	// snapshot behind, and the crashed run must still restore its own.
	dir := t.TempDir()
	base, baseRes, baseE := runSnapBFS(t, dir, nil)
	// Step 6 sits one superstep past the interval-2 checkpoint at round 4,
	// so the recovery genuinely replays a lost round.
	plan, err := fault.Parse("crash:worker=0,step=6")
	if err != nil {
		t.Fatal(err)
	}
	faulted, faultedRes, faultedE := runSnapBFS(t, dir, plan)

	for v := range base.dist {
		if base.dist[v] != faulted.dist[v] {
			t.Fatalf("dist[%d]: unfaulted %d, recovered %d", v, base.dist[v], faulted.dist[v])
		}
	}
	if baseE.Recoveries() != 0 || faultedE.Recoveries() != 1 {
		t.Fatalf("recoveries: unfaulted %d, faulted %d", baseE.Recoveries(), faultedE.Recoveries())
	}
	if faultedRes.Recoveries != 1 || faultedRes.RoundsLost <= 0 || faultedRes.RecoverySeconds <= 0 {
		t.Fatalf("faulted result missing recovery accounting: %+v", faultedRes)
	}
	if plan.Remaining() != 0 {
		t.Fatalf("fault plan not fully consumed: %d events left", plan.Remaining())
	}

	// Modulo the recovery accounting, the faulted run's report must match
	// the unfaulted one: same rounds, messages, checkpoints, and (up to
	// float association) the same simulated time.
	norm := func(r sim.JobResult) sim.JobResult {
		r.Seconds -= r.RecoverySeconds
		r.Recoveries, r.RoundsLost, r.RecoverySeconds = 0, 0, 0
		return r
	}
	a, b := norm(baseRes), norm(faultedRes)
	if math.Abs(a.Seconds-b.Seconds) > 1e-9*math.Abs(a.Seconds) {
		t.Fatalf("seconds diverge: unfaulted %v, recovered %v", a.Seconds, b.Seconds)
	}
	a.Seconds, b.Seconds = 0, 0
	if a != b {
		t.Fatalf("results diverge:\nunfaulted %+v\nrecovered %+v", a, b)
	}
	if baseRes.CheckpointsWritten == 0 {
		t.Fatal("no checkpoints written")
	}
}

// TestCheckpointPruneKeepsLatestOnly runs in a directory that already holds
// a higher-step snapshot from an earlier run: every checkpoint the run cuts
// replaces it, and the run's own last one is the only file left.
func TestCheckpointPruneKeepsLatestOnly(t *testing.T) {
	dir := t.TempDir()
	stale := &ckpt.Snapshot{Step: 99}
	stale.Add(secProg, []byte("an earlier run"))
	if _, err := (&ckpt.Manager{Dir: dir}).Save(stale); err != nil {
		t.Fatal(err)
	}
	_, res, _ := runSnapBFS(t, dir, nil)
	if res.CheckpointsWritten < 2 {
		t.Fatalf("expected multiple checkpoints, got %d", res.CheckpointsWritten)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "ckpt-000000014.vck" {
		t.Fatalf("prune left %v, want only the run's round-14 snapshot", ents)
	}
}

func TestCrashWithoutCheckpointConfigErrors(t *testing.T) {
	g := graph.GenerateRing(8)
	part := graph.HashPartition(g.NumVertices(), 2)
	plan, err := fault.Parse("crash:worker=0,step=3")
	if err != nil {
		t.Fatal(err)
	}
	e := New[hopMsg](g, part, snapBFS{newBFS(g.NumVertices(), 0)}, nil, Options[hopMsg]{Seed: 1, Fault: plan})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "checkpointing is not configured") {
		t.Fatalf("want crash-without-checkpoint error, got %v", err)
	}
}

func TestCheckpointValidation(t *testing.T) {
	g := graph.GenerateRing(8)
	part := graph.HashPartition(g.NumVertices(), 2)
	dir := t.TempDir()

	// Missing codec.
	e := New[hopMsg](g, part, snapBFS{newBFS(g.NumVertices(), 0)}, nil, Options[hopMsg]{
		Checkpoint: &CheckpointOptions{Dir: dir},
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "Codec") {
		t.Fatalf("want missing-codec error, got %v", err)
	}

	// Missing dir.
	e = New[hopMsg](g, part, snapBFS{newBFS(g.NumVertices(), 0)}, nil, Options[hopMsg]{
		Codec: hopMsgCodec{}, Checkpoint: &CheckpointOptions{},
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("want missing-dir error, got %v", err)
	}

	// Program without StateSnapshotter.
	e = New[hopMsg](g, part, newBFS(g.NumVertices(), 0), nil, Options[hopMsg]{
		Codec: hopMsgCodec{}, Checkpoint: &CheckpointOptions{Dir: dir},
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "StateSnapshotter") {
		t.Fatalf("want snapshotter error, got %v", err)
	}
}

// TestCheckpointFilesUnderDir verifies checkpoints land in the configured
// directory with the ckpt suffix.
func TestCheckpointFilesUnderDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ckpts")
	runSnapBFS(t, dir, nil)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no checkpoint files written")
	}
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".vck") {
			t.Fatalf("unexpected file %q", ent.Name())
		}
	}
}

// TestCheckpointBytesPinned holds the snapshot format to its recorded bytes:
// exactly the outbox, rng and prog sections, in that order, with the round
// in the container header; the last snapshot of the fixture run is
// byte-identical, and so is the checkpoint volume the run reports — which
// is what sim prices and every report prints as checkpoint_bytes.
func TestCheckpointBytesPinned(t *testing.T) {
	const (
		wantFile     = "ckpt-000000014.vck"
		wantSize     = 335
		wantCRC      = 0xc4abfb78
		wantWritten  = 8
		wantRunBytes = 2992
	)
	dir := t.TempDir()
	_, res, _ := runSnapBFS(t, dir, nil)
	if res.CheckpointsWritten != wantWritten || res.CheckpointBytes != wantRunBytes {
		t.Fatalf("run wrote %d checkpoints, %d bytes; pinned %d, %d",
			res.CheckpointsWritten, res.CheckpointBytes, wantWritten, wantRunBytes)
	}
	data, err := os.ReadFile(filepath.Join(dir, wantFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != wantSize || crc32.ChecksumIEEE(data) != wantCRC {
		t.Fatalf("snapshot is %d bytes, CRC %#x; pinned %d, %#x", len(data), crc32.ChecksumIEEE(data), wantSize, wantCRC)
	}
	snap, err := ckpt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sec := range snap.Sections {
		names = append(names, sec.Name)
	}
	if got := strings.Join(names, ","); got != "outbox,rng,prog" || snap.Step != 14 {
		t.Fatalf("snapshot step %d with sections %s; want step 14 with outbox,rng,prog", snap.Step, got)
	}
}
