package tasks

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"vcmt/internal/ckpt"
	"vcmt/internal/engine"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
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

// TestBPPREndpointImagesPinned pins what both BPPR programs write through
// real Compute calls: the sha256 of every checkpoint file a checkpointed
// run leaves, in step order, for Workers 1 and 4. Later checkpoints change
// entries an earlier one saved, so the files include deltas, whose bytes
// follow the order the Compute calls record and change entries in; and the
// fixture gives some vertex two messages of one source in one call, so the
// order within a call shows too. The endpoint tables' image is the same
// for every worker count, so one list serves both.
func TestBPPREndpointImagesPinned(t *testing.T) {
	const n, k = 300, 4
	g := graph.GenerateChungLu(n, 1200, 2.5, 5)
	part := graph.HashPartition(n, k)
	want := map[bool][]string{
		false: {
			"batch000/ckpt-000000038.vck c361297b87ecd9684b00ad60ea267a5d5825b441e184c63abdc043631b4459bd",
			"batch000/ckpt-000000040.vck 3597967a7a29a91beb7cdfcce72a3c5fc6b33387e969bf891ced6982ee68a47e",
			"batch000/ckpt-000000042.vck 5ddbf414a27bca641a1102f13a619bc7add436edf5ad072f285233b524f64d56",
			"batch001/ckpt-000000066.vck 87c1b02b9a99fde9917ef543c5a0025addef835816271b22378678883069c259",
			"batch001/ckpt-000000068.vck f4031adb73554ed4f8081623c6e2ff89bff6bd6ae3f04f920fe7d10a68190e03",
			"batch001/ckpt-000000070.vck d810776c2f737bd428202eddf62115a49816b6d6f3dff4ffe55be523bfbb80d1",
			"batch001/ckpt-000000072.vck 9b1acf64956c62ebfa891f931df955a04afa74b3a0a84325524cae70b57bf2ab",
			"batch001/ckpt-000000074.vck 8870e0cddf1def6ffb38619f11ded93ab76f76016b217249cb8b0d4420b938af",
			"batch001/ckpt-000000076.vck 971e306a838abf466132b264c8866469517fe6d95f5280908c61e8bef89f2ee6",
			"batch001/ckpt-000000078.vck 6a8c2893ff386a7a89c1f5f29c8ef77a8f661aee85b9e9c632d99b023fa09a10",
			"batch001/ckpt-000000080.vck 2a1816219a2e0a91170f52013968a68164e55c2616bedb54f9df5b07334fdf57",
		},
		true: {
			"batch000/ckpt-000000004.vck abf6eb246a66f0d1311d6d168804e2b33b729ad93c99fb20b7e2a638b1d14dba",
			"batch000/ckpt-000000006.vck e8962520b6ba449f899327967bdea9257fe9a220b9860696aa9d7e9a856fb6b1",
			"batch000/ckpt-000000008.vck 57f41b3a1c60d055b42d6b99fd3e7506b9453c12b3436db6a110ed69e7cbd3a3",
			"batch001/ckpt-000000002.vck 4e32386361e47ef9709ce4e3b018e9d0f7097bfd8eae1f63736030d851fe63a1",
			"batch001/ckpt-000000004.vck 5a3ce30474bf580d03b95f04a532339d20bcdf30d41094c576fe9f8414c93281",
			"batch001/ckpt-000000006.vck 6e9974e982b36816e73ce2b4a1624090715b1549e2977cb4865aa563e974cca6",
			"batch001/ckpt-000000008.vck 220ddc39684dd3995fb3dc682fa32809b8484f72ae1657bf0925bdb7e6ea0984",
		},
	}
	for _, mirror := range []bool{false, true} {
		t.Run(fmt.Sprintf("mirror=%v", mirror), func(t *testing.T) {
			cfg := BPPRConfig{WalksPerNode: 12, Mirror: mirror, Seed: 5, CheckpointInterval: 2}
			if repeats := repeatedSourceCalls(t, g, part, cfg); repeats == 0 {
				t.Fatal("no Compute call receives two messages of one source; the fixture pins nothing within a call")
			}
			for _, w := range []int{1, 4} {
				cfg.Workers, cfg.CheckpointDir = w, t.TempDir()
				job := NewBPPR(g, part, cfg)
				rc := testRunCfg(k)
				if mirror {
					rc.System = sim.PregelPlusMirror
				}
				r := sim.NewRun(rc)
				for b := range 2 {
					if _, err := job.RunBatch(r, 6, b); err != nil {
						t.Fatal(err)
					}
				}
				got, deltas := checkpointDigests(t, cfg.CheckpointDir)
				if deltas == 0 {
					t.Fatal("the run wrote no delta")
				}
				if !slices.Equal(got, want[mirror]) {
					t.Errorf("workers=%d: checkpoint files\n got %q\nwant %q", w, got, want[mirror])
				}
			}
		})
	}
}

// repeatedSourceCalls runs a batch of cfg's program and counts the Compute
// calls whose messages name one source twice.
func repeatedSourceCalls(t *testing.T, g *graph.Graph, part *graph.Partition, cfg BPPRConfig) int {
	t.Helper()
	job := NewBPPR(g, part, BPPRConfig{WalksPerNode: cfg.WalksPerNode, Seed: cfg.Seed, Mirror: cfg.Mirror})
	rc := testRunCfg(part.NumMachines())
	if cfg.Mirror {
		rc.System = sim.PregelPlusMirror
		return runCountingRepeats(t, g, part, newBpprPush(job.nextBatch(6)), rc, cfg.Seed,
			func(m MassMsg) graph.VertexID { return m.Src })
	}
	return runCountingRepeats(t, g, part, newBpprMC(job.nextBatch(6)), rc, cfg.Seed,
		func(m WalkMsg) graph.VertexID { return m.Src })
}

func runCountingRepeats[M any](t *testing.T, g *graph.Graph, part *graph.Partition, prog vcapi.Program[M],
	rc sim.JobConfig, seed uint64, src func(M) graph.VertexID) int {
	c := &repeatCounter[M]{Program: prog, src: src}
	if err := engine.New(g, part, c, sim.NewRun(rc), engine.Options[M]{Seed: seed, Workers: 1}).Run(); err != nil {
		t.Fatal(err)
	}
	return c.repeats
}

// repeatCounter wraps a program and counts the Compute calls whose messages
// repeat a source.
type repeatCounter[M any] struct {
	vcapi.Program[M]
	src     func(M) graph.VertexID
	repeats int
}

func (c *repeatCounter[M]) Compute(ctx vcapi.Context[M], v graph.VertexID, msgs []M) {
	seen := map[graph.VertexID]bool{}
	for _, m := range msgs {
		if seen[c.src(m)] {
			c.repeats++
			break
		}
		seen[c.src(m)] = true
	}
	c.Program.Compute(ctx, v, msgs)
}

// checkpointDigests lists the sha256 of every checkpoint file under dir,
// batch by batch in step order, as "batch/step sha256", and counts the
// deltas among them.
func checkpointDigests(t *testing.T, dir string) (digests []string, deltas int) {
	t.Helper()
	files := readTree(t, dir)
	names := slices.Sorted(maps.Keys(files))
	for _, name := range names {
		sum := sha256.Sum256([]byte(files[name]))
		digests = append(digests, fmt.Sprintf("%s %x", name, sum))
		snap, err := ckpt.Decode([]byte(files[name]))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Get(ckpt.ParentSection) != nil {
			deltas++
		}
	}
	return digests, deltas
}

// TestBPPRScratchFillsCacheLines guards the layout that keeps pool workers
// off each other's cache lines: a machine's Compute scratch is a record of
// whole 64-byte lines, so a field added to it cannot put two machines back
// on one line.
func TestBPPRScratchFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(bpprScratch{}); size%64 != 0 {
		t.Fatalf("bpprScratch is %d bytes, not a multiple of a 64-byte cache line", size)
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

// addEndpoint adds mass walks from src stopped at v to machine's table.
func (j *BPPRJob) addEndpoint(machine int, src, v graph.VertexID, mass float64) {
	j.addStops(machine, v, []walkMass{{src, mass}})
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
