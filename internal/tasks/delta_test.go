package tasks

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// TestBPPRDeltaBytesPinned pins the bytes of one small BPPR delta: per
// machine the entry count, the changed entries (position, mass) in
// first-change order, each listed once, then the entries recorded since.
// The delta loads on top of the base to the job's tables, and the next
// delta starts afresh.
func TestBPPRDeltaBytesPinned(t *testing.T) {
	g := graph.GenerateRing(4)
	part := graph.HashPartition(4, 2)
	job := NewBPPR(g, part, BPPRConfig{WalksPerNode: 1})
	b := job.NextBatch(1).(vcapi.DeltaSnapshotter)
	job.addEndpoint(0, 1, 2, 3)
	job.addEndpoint(1, 0, 3, 1)
	base, _ := b.AppendState(nil)
	job.addEndpoint(0, 1, 2, 0.5)
	job.addEndpoint(0, 3, 0, 2)
	job.addEndpoint(0, 1, 2, 0.5)
	delta, _ := b.AppendDelta(nil)
	want := []byte{
		2, 0, 0, 0, // machines
		2, 0, 0, 0, 0, 0, 0, 0, // machine 0: 2 entries
		1, 0, 0, 0, 0, 0, 0, 0, // 1 changed
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, 0x40, // entry 0 now holds 4 walks
		0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, // (3, 0) holds 2, recorded since
		1, 0, 0, 0, 0, 0, 0, 0, // machine 1: 1 entry
		0, 0, 0, 0, 0, 0, 0, 0, // none changed
	}
	if !bytes.Equal(delta, want) {
		t.Fatalf("delta bytes\n got %v\nwant %v", delta, want)
	}
	again, _ := b.AppendDelta(nil)
	if len(again) != 4+2*16 {
		t.Fatalf("a delta of nothing holds %d bytes", len(again))
	}
	j2 := NewBPPR(g, part, BPPRConfig{WalksPerNode: 1})
	b2 := j2.NextBatch(1).(vcapi.DeltaSnapshotter)
	if err := b2.LoadState(base); err != nil {
		t.Fatal(err)
	}
	if err := b2.LoadDelta(delta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j2.appendEndpoints(nil), job.appendEndpoints(nil)) {
		t.Fatal("base plus delta does not restore the job's tables")
	}
}

// encodeSnap is a snapshot's file image.
func encodeSnap(t *testing.T, s *ckpt.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestBPPRChainRestoresFullState is the chain property over random graphs,
// seeds, machine counts, intervals and both variants: at every barrier a
// checkpoint is cut, a fresh engine restores the chain on disk, and its
// base snapshot — the endpoint tables included — equals the original
// engine's byte for byte. The trials must write deltas and rebase.
func TestBPPRChainRestoresFullState(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	kinds := map[bool]int{}
	for trial := range 6 {
		n := 300 + rng.IntN(300)
		g := graph.GenerateChungLu(n, int64(4*n), 2.5, rng.Uint64())
		part := graph.HashPartition(n, 1+rng.IntN(4))
		cfg := BPPRConfig{WalksPerNode: 12, Seed: rng.Uint64(), Mirror: trial%2 == 1}
		interval := 1 + rng.IntN(3)
		name := fmt.Sprintf("n=%d/k=%d/interval=%d/mirror=%v", n, part.NumMachines(), interval, cfg.Mirror)
		t.Run(name, func(t *testing.T) {
			if cfg.Mirror {
				requireChainRestores(t, g, part, cfg, interval, massCodec{}, kinds,
					func(j *BPPRJob) vcapi.Program[MassMsg] { return newBpprPush(j.nextBatch(12)) })
			} else {
				requireChainRestores(t, g, part, cfg, interval, WalkCodec{}, kinds,
					func(j *BPPRJob) vcapi.Program[WalkMsg] { return newBpprMC(j.nextBatch(12)) })
			}
		})
	}
	if kinds[true] == 0 || kinds[false] < 6+2 {
		t.Fatalf("the trials wrote %d deltas and %d bases", kinds[true], kinds[false])
	}
}

func requireChainRestores[M any](t *testing.T, g *graph.Graph, part *graph.Partition, cfg BPPRConfig, interval int,
	codec engine.Codec[M], kinds map[bool]int, batch func(*BPPRJob) vcapi.Program[M]) {
	opts := engine.Options[M]{Seed: cfg.Seed, Workers: 1, Codec: codec}
	e := engine.New(g, part, batch(NewBPPR(g, part, cfg)), nil, opts)
	restored := engine.New(g, part, batch(NewBPPR(g, part, cfg)), nil, opts)
	dir := t.TempDir()
	mgr := &ckpt.Manager{Dir: dir}
	for round := 1; round <= 40; round++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if round != 1 && round%interval != 0 {
			continue
		}
		_, delta, err := mgr.Cut(e.SnapshotDelta)
		if err != nil {
			t.Fatal(err)
		}
		kinds[delta]++
		snap, _, err := (&ckpt.Manager{Dir: dir}).Latest()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Prev != nil {
			unlinked := *snap
			unlinked.Prev = nil
			if err := restored.Restore(&unlinked); !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("round %d: a delta restored without its chain: %v", round, err)
			}
		}
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// A base right after the cut changes nothing the chain tracks.
		want, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeSnap(t, got), encodeSnap(t, want)) {
			t.Fatalf("round %d: the restored chain's base differs from the engine's", round)
		}
	}
}

// TestBPPRMidChainCrashBitIdentical crashes a checkpointed BPPR batch
// right after the second-newest checkpoint of the fault-free run, so
// recovery restores a base and at least two deltas and the run goes on
// extending that chain: the endpoint tables, the supersteps and every
// checkpoint file must equal the fault-free run's.
func TestBPPRMidChainCrashBitIdentical(t *testing.T) {
	g := graph.GenerateChungLu(500, 2000, 2.5, 17)
	part := graph.HashPartition(500, 3)
	for _, mirror := range []bool{false, true} {
		t.Run(fmt.Sprintf("mirror=%v", mirror), func(t *testing.T) {
			run := func(dir string, plan *fault.Plan) ([]byte, int) {
				job := NewBPPR(g, part, BPPRConfig{WalksPerNode: 16, Mirror: mirror, Seed: 3,
					CheckpointDir: dir, CheckpointInterval: 2, Fault: plan})
				rc := testRunCfg(3)
				if mirror {
					rc.System = sim.PregelPlusMirror
				}
				r := sim.NewRun(rc)
				if _, err := job.RunBatch(r, 16, 0); err != nil {
					t.Fatal(err)
				}
				return job.appendEndpoints(nil), r.Result().Rounds
			}
			clean := t.TempDir()
			want, rounds := run(clean, nil)
			ents, err := os.ReadDir(filepath.Join(clean, "batch000"))
			if err != nil {
				t.Fatal(err)
			}
			var steps []int
			for _, ent := range ents {
				var step int
				if _, err := fmt.Sscanf(ent.Name(), "ckpt-%d.vck", &step); err == nil {
					steps = append(steps, step)
				}
			}
			sort.Ints(steps)
			if len(steps) < 4 {
				t.Fatalf("the fault-free run ends on a chain of %d snapshots %v; the test needs 4", len(steps), steps)
			}
			crashAt := steps[len(steps)-2] + 1
			plan, err := fault.Parse(fmt.Sprintf("crash:worker=1,step=%d", crashAt))
			if err != nil {
				t.Fatal(err)
			}
			crashed := t.TempDir()
			got, gotRounds := run(crashed, plan)
			if plan.Remaining() != 0 {
				t.Fatalf("the crash at step %d never fired", crashAt)
			}
			if !bytes.Equal(got, want) || gotRounds != rounds {
				t.Fatalf("crash at step %d: endpoints or %d rounds differ from the fault-free run's %d", crashAt, gotRounds, rounds)
			}
			if a, b := readTree(t, clean), readTree(t, crashed); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("checkpoint files differ: fault-free %d files, crash-recovered %d", len(a), len(b))
			}
		})
	}
}

// FuzzBPPRLoadDelta feeds arbitrary prog sections to a BPPR job's delta
// loader on top of a real base: each must load or fail with
// ckpt.ErrCorrupt, never panic, and a section that loads must save back to
// exactly its bytes.
func FuzzBPPRLoadDelta(f *testing.F) {
	job, e := bpprSnapshotEngine(f)
	snap, err := e.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	base := bytes.Clone(snap.Get("prog"))
	if err := e.Step(); err != nil {
		f.Fatal(err)
	}
	if snap, err = e.SnapshotDelta(snap.Step); err != nil {
		f.Fatal(err)
	}
	delta := bytes.Clone(snap.Get("prog"))
	if err := job.marked(job.loadEndpoints(base)); err != nil {
		f.Fatal(err)
	}
	if err := job.loadTables(delta, true); err != nil {
		f.Fatalf("a real delta does not load: %v", err)
	}
	f.Add(delta)
	f.Add(delta[:len(delta)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		j := NewBPPR(job.g, job.part, job.cfg)
		if err := j.marked(j.loadEndpoints(base)); err != nil {
			t.Fatal(err)
		}
		if err := j.loadTables(data, true); err != nil {
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("load failed with %v, want ckpt.ErrCorrupt", err)
			}
			return
		}
		if got := j.appendTables(nil, true); !bytes.Equal(got, data) {
			t.Fatalf("a loaded delta saves back to %d other bytes (was %d)", len(got), len(data))
		}
	})
}
