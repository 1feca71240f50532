package tasks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
)

// TestEndpointTableMatchesMap drives an endpoint table and a map with the
// same random additions — keys drawn from a small pool so most repeat, plus
// 0 and the all-ones key — across several index doublings and chunk
// boundaries, and checks that lookups and the length agree with the map
// and that iteration follows first-insertion order.
func TestEndpointTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pool := []uint64{0, ^uint64(0)}
	for len(pool) < 3*endpointChunk+500 {
		pool = append(pool, rng.Uint64())
	}
	var tbl endpointTable
	want := map[uint64]float64{}
	var order []uint64
	for i := range 8 * len(pool) {
		key := pool[rng.IntN(len(pool))]
		if i < 2 {
			key = pool[i]
		}
		mass := float64(rng.IntN(5) + 1)
		if _, ok := want[key]; !ok {
			order = append(order, key)
		}
		want[key] += mass
		e, _ := tbl.ref(key)
		e.mass += mass
		if tbl.n != len(want) {
			t.Fatalf("after %d additions the table holds %d entries, the map %d", i+1, tbl.n, len(want))
		}
	}
	if len(tbl.chunks) < 4 || len(tbl.index) < 2*tbl.n {
		t.Fatalf("%d entries in %d chunks under a %d-slot index", tbl.n, len(tbl.chunks), len(tbl.index))
	}
	for _, key := range append(pool, 1, 2, 1<<32) {
		if got := tbl.get(key); got != want[key] {
			t.Fatalf("get(%#x) = %v, want %v", key, got, want[key])
		}
	}
	i := 0
	for _, chunk := range tbl.chunks {
		for _, e := range chunk {
			if e.key != order[i] || e.mass != want[e.key] {
				t.Fatalf("entry %d is (%#x, %v), want (%#x, %v)", i, e.key, e.mass, order[i], want[order[i]])
			}
			i++
		}
	}
	if i != len(order) {
		t.Fatalf("iteration visited %d entries, want %d", i, len(order))
	}
}

// TestBPPRCheckpointOrderIsCanonical pins the order contract of BPPR's
// program snapshot: the endpoint tables are written in first-insertion
// order, so the final prog bytes of both variants must be identical for
// every worker count, out of core at every partition count, and through a
// crash and recovery — whose checkpoint files must also equal the
// fault-free run's, byte for byte.
func TestBPPRCheckpointOrderIsCanonical(t *testing.T) {
	const n, k = 300, 4
	g := graph.GenerateChungLu(n, 1200, 2.5, 5)
	part := graph.HashPartition(n, k)
	for _, mirror := range []bool{false, true} {
		t.Run(fmt.Sprintf("mirror=%v", mirror), func(t *testing.T) {
			run := func(cfg BPPRConfig) []byte {
				cfg.WalksPerNode, cfg.Mirror, cfg.Seed = 12, mirror, 5
				job := NewBPPR(g, part, cfg)
				rc := testRunCfg(k)
				if mirror {
					rc.System = sim.PregelPlusMirror
				}
				r := sim.NewRun(rc)
				for b := range 3 {
					if _, err := job.RunBatch(r, 4, b); err != nil {
						t.Fatal(err)
					}
				}
				return job.appendEndpoints(nil)
			}
			want := run(BPPRConfig{Workers: 1})
			for _, w := range []int{2, 8} {
				if !bytes.Equal(run(BPPRConfig{Workers: w}), want) {
					t.Fatalf("workers=%d: prog bytes differ from workers=1", w)
				}
			}
			if !mirror { // the mirror variant always runs in memory
				for _, p := range []int{1, 3, 7} {
					if !bytes.Equal(run(BPPRConfig{OOC: &OOCConfig{Dir: t.TempDir(), Partitions: p}}), want) {
						t.Fatalf("ooc partitions=%d: prog bytes differ from the in-memory run", p)
					}
				}
			}
			plan, err := fault.Parse("crash:worker=1,step=5")
			if err != nil {
				t.Fatal(err)
			}
			clean, crashed := t.TempDir(), t.TempDir()
			if !bytes.Equal(run(BPPRConfig{CheckpointDir: clean, CheckpointInterval: 2}), want) {
				t.Fatal("checkpointed run: prog bytes differ from the plain run")
			}
			if !bytes.Equal(run(BPPRConfig{CheckpointDir: crashed, CheckpointInterval: 2, Fault: plan}), want) {
				t.Fatal("crash-recovered run: prog bytes differ from the fault-free run")
			}
			if plan.Remaining() != 0 {
				t.Fatal("the planned crash never fired")
			}
			if a, b := readTree(t, clean), readTree(t, crashed); len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("checkpoint files differ: fault-free %d files, crash-recovered %d", len(a), len(b))
			}
		})
	}
}

// readTree maps every file under dir, by relative path, to its contents.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// requireForgedEndpointsRejected restores snapshots whose prog section is a
// well-framed endpoint image that no run can write: a repeated pair, or a
// mass that is not positive. Each must be an error wrapping
// ckpt.ErrCorrupt — not a table silently shorter than its count.
func requireForgedEndpointsRejected(t *testing.T, e *engine.Engine[WalkMsg]) {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	forge := func(entries ...endpoint) *ckpt.Snapshot {
		k := e.Partition().NumMachines()
		prog := binary.LittleEndian.AppendUint32(nil, uint32(k))
		prog = binary.LittleEndian.AppendUint64(prog, uint64(len(entries)))
		for _, en := range entries {
			prog = binary.LittleEndian.AppendUint64(prog, en.key)
			prog = binary.LittleEndian.AppendUint64(prog, math.Float64bits(en.mass))
		}
		for range k - 1 {
			prog = binary.LittleEndian.AppendUint64(prog, 0)
		}
		forged := &ckpt.Snapshot{Step: snap.Step}
		for _, s := range snap.Sections {
			if s.Name == "prog" {
				forged.Add(s.Name, prog)
			} else {
				forged.Add(s.Name, s.Data)
			}
		}
		return forged
	}
	if err := e.Restore(forge(endpoint{1, 2}, endpoint{2, 0.5})); err != nil {
		t.Fatalf("well-formed forged endpoints: %v", err)
	}
	for what, entries := range map[string][]endpoint{
		"a repeated pair": {{1, 2}, {3, 1}, {1, 2}},
		"a zero mass":     {{1, 2}, {2, 0}},
		"a negative mass": {{1, -1}},
		"a NaN mass":      {{1, math.NaN()}},
	} {
		if err := e.Restore(forge(entries...)); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("%s: Restore returned %v, want ckpt.ErrCorrupt", what, err)
		}
	}
}

// bpprSnapshotEngine returns an engine stepped twice through a BPPR batch,
// and the job behind it.
func bpprSnapshotEngine(tb testing.TB) (*BPPRJob, *engine.Engine[WalkMsg]) {
	g := graph.GenerateChungLu(200, 800, 2.4, 3)
	part := graph.HashPartition(g.NumVertices(), 4)
	job := NewBPPR(g, part, BPPRConfig{WalksPerNode: 8})
	e := engine.New(g, part, job.NextBatch(8), nil, snapshotOpts[WalkMsg](WalkCodec{}))
	for range 2 {
		if err := e.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return job, e
}

// fillEndpoints records synthetic endpoints until the job holds n.
func fillEndpoints(job *BPPRJob, n int) {
	k := len(job.endpoints)
	for i := 0; job.EndpointEntries() < int64(n); i++ {
		job.addEndpoint(i%k, graph.VertexID(i), graph.VertexID(i/k), 1)
	}
}

// TestBPPRSnapshotAllocsFlat checks that a warm engine's BPPR snapshot
// allocates nothing per endpoint: the sections are encoded into the
// engine's buffer by a linear scan, so a snapshot of 4N endpoints makes no
// more allocations than one of N.
func TestBPPRSnapshotAllocsFlat(t *testing.T) {
	job, e := bpprSnapshotEngine(t)
	var allocs [2]float64
	for i, n := range []int{20000, 80000} {
		fillEndpoints(job, n)
		allocs[i] = testing.AllocsPerRun(5, func() {
			if _, err := e.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1] > allocs[0] {
		t.Fatalf("Snapshot allocates %v times at 20000 endpoints, %v at 80000", allocs[0], allocs[1])
	}
}

// BenchmarkBPPRSnapshot measures a warm engine's barrier snapshot of a
// BPPR batch whose endpoint tables hold the given number of entries; the
// bytes are the prog section's.
func BenchmarkBPPRSnapshot(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("endpoints=%d", n), func(b *testing.B) {
			job, e := bpprSnapshotEngine(b)
			fillEndpoints(job, n)
			b.SetBytes(int64(16 * n))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzBPPRLoadState feeds arbitrary prog sections to a BPPR job's restore:
// each must load or fail with ckpt.ErrCorrupt, never panic, and a section
// that loads must save back to exactly its bytes.
func FuzzBPPRLoadState(f *testing.F) {
	job, e := bpprSnapshotEngine(f)
	snap, err := e.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(snap.Get("prog")))
	f.Add([]byte{})
	f.Add(job.appendEndpoints(nil)[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		j := NewBPPR(job.g, job.part, job.cfg)
		if err := j.loadEndpoints(data); err != nil {
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("load failed with %v, want ckpt.ErrCorrupt", err)
			}
			return
		}
		if got := j.appendEndpoints(nil); !bytes.Equal(got, data) {
			t.Fatalf("a loaded section saves back to %d other bytes (was %d)", len(got), len(data))
		}
	})
}
