package tasks

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
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
				requireChainRestores(t, g, part, cfg, interval, massKind, kinds,
					func(j *BPPRJob) vcapi.Program[MassMsg] { return newBpprPush(j.nextBatch(12)) })
			} else {
				requireChainRestores(t, g, part, cfg, interval, walkKind, kinds,
					func(j *BPPRJob) vcapi.Program[WalkMsg] { return newBpprMC(j.nextBatch(12)) })
			}
		})
	}
	if kinds[true] == 0 || kinds[false] < 6+2 {
		t.Fatalf("the trials wrote %d deltas and %d bases", kinds[true], kinds[false])
	}
}

func requireChainRestores[M any](t *testing.T, g *graph.Graph, part *graph.Partition, cfg BPPRConfig, interval int,
	kind msgKind[M], kinds map[bool]int, batch func(*BPPRJob) vcapi.Program[M]) {
	opts := engine.Options[M]{Seed: cfg.Seed, Workers: 1, Codec: kind.codec}
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
		if !bytes.Equal(encodeSnap(t, mustSnapshot(t, restored)), encodeSnap(t, mustSnapshot(t, e))) {
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
			run := func(dir string, cfg BPPRConfig) ([]byte, int) {
				cfg.WalksPerNode, cfg.Mirror, cfg.Seed, cfg.CheckpointDir, cfg.CheckpointInterval = 16, mirror, 3, dir, 2
				job := NewBPPR(g, part, cfg)
				r := sim.NewRun(testRunCfg(3))
				if mirror {
					r = mirrorRun(3)
				}
				if _, err := job.RunBatch(r, 16, 0); err != nil {
					t.Fatal(err)
				}
				return job.appendEndpoints(nil), r.Result().Rounds
			}
			clean := t.TempDir()
			want, rounds := run(clean, BPPRConfig{})
			steps := checkpointSteps(t, filepath.Join(clean, "batch000"))
			if len(steps) < 4 {
				t.Fatalf("the fault-free run ends on a chain of %d snapshots %v; the test needs 4", len(steps), steps)
			}
			crashAt := steps[len(steps)-2] + 1
			plan := mustPlan(t, fmt.Sprintf("crash:worker=1,step=%d", crashAt))
			crashed := t.TempDir()
			got, gotRounds := run(crashed, BPPRConfig{Fault: plan})
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
