package tasks

// The conformance table: one row per vertex program with its message
// codec, its fold (combiner and key) if it declares one, and its state
// store, and one test per law, which runs on every row it applies to. A new
// program or store is one more row in table; every law then checks it.
// The byte-pinning tests (TestCheckpointBytesPinned,
// TestBatchSnapshotImagesPinned, TestBPPREndpointImagesPinned,
// TestBPPRDeltaBytesPinned) stay outside the table: a law cannot pin bytes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
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
	"vcmt/internal/gas"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/ref"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// table lists every (program, codec, fold, store) row.
var table = []conformer{
	msspRow("mssp", false, false),
	msspRow("mssp-weighted", false, true),
	msspRow("mssp-mirror", true, false),
	bkhsRow("bkhs", false),
	bkhsRow("bkhs-mirror", true),
	bpprRow("bppr", false, walkKind, 0.03, func(b *bpprBatch) Batch[WalkMsg] { return newBpprMC(b) },
		func(r *rand.Rand, src graph.VertexID) WalkMsg { return WalkMsg{src, int32(r.IntN(1000) + 1)} }),
	bpprRow("bppr-push", true, massKind, 0.01, func(b *bpprBatch) Batch[MassMsg] { return newBpprPush(b) },
		func(r *rand.Rand, src graph.VertexID) MassMsg { return MassMsg{src, r.Float32() * 8} }),
}

// The laws, one test each.
func TestCodecsRoundTrip(t *testing.T)                 { eachRow(t, conformer.codecLaw) }
func TestFoldExact(t *testing.T)                       { eachRow(t, conformer.foldLaw) }
func TestSendAllEqualsSend(t *testing.T)               { eachRow(t, conformer.sendAllLaw) }
func TestResetEqualsFresh(t *testing.T)                { eachRow(t, conformer.resetLaw) }
func TestCheckpointRestoreContinues(t *testing.T)      { eachRow(t, conformer.restoreLaw) }
func TestRestoreRejectsDamagedSnapshots(t *testing.T)  { eachRow(t, conformer.prefixLaw) }
func TestCrashWorkerAndBackendInvariance(t *testing.T) { eachRow(t, conformer.invarianceLaw) }
func TestResultsMatchOracle(t *testing.T)              { eachRow(t, conformer.oracleLaw) }
func TestDegenerateInputs(t *testing.T)                { eachRow(t, conformer.degenerateLaw) }

// conformer is a row with its message type erased.
type conformer interface {
	label() string
	codecLaw(*testing.T)
	foldLaw(*testing.T)
	sendAllLaw(*testing.T)
	resetLaw(*testing.T)
	restoreLaw(*testing.T)
	prefixLaw(*testing.T)
	invarianceLaw(*testing.T)
	oracleLaw(*testing.T)
	degenerateLaw(*testing.T)
	fuzzer(*testing.F, string) func(*testing.T, []byte)
}

func eachRow(t *testing.T, law func(conformer, *testing.T)) {
	for _, r := range table {
		t.Run(r.label(), func(t *testing.T) { law(r, t) })
	}
}

// row is one vertex program; M is its message type.
type row[M any] struct {
	name string
	kind msgKind[M]
	// mirror runs the broadcast variant on the mirroring profile, which has
	// no out-of-core or asynchronous mode; weighted runs on weighted graphs;
	// sourced tasks take a source set S as their workload.
	mirror, weighted, sourced bool
	// job builds the row's job: over S for a sourced task, otherwise over
	// w units per vertex.
	job func(g *graph.Graph, part *graph.Partition, s []graph.VertexID, w int, c execConfig) (Job, error)
	// next cuts the job's next batch program of w units.
	next func(j Job, w int) (Batch[M], error)
	// out is the job's results, as bytes.
	out func(j Job) []byte
	// oracle checks the job's results against internal/ref, and the
	// residual entries its batches left, resid, against its store.
	oracle func(t *testing.T, g *graph.Graph, s []graph.VertexID, j Job, resid int64)
	// msg draws a message the program could send for source src.
	msg func(r *rand.Rand, src graph.VertexID) M
	// forged lists store images no run writes, derived from a real one.
	forged func(img []byte) map[string][]byte
}

func (r row[M]) label() string { return r.name }

const machines = 3

// fixture is a law's graph of n vertices on the law machines, weighted for
// a weighted row, and its first w sources.
func (r row[M]) fixture(n, w int) (*graph.Graph, *graph.Partition, []graph.VertexID) {
	g := graph.GenerateChungLu(n, int64(4*n), 2.5, 5)
	if r.weighted {
		g = graph.WithUniformWeights(g, 1, 4, 13)
	}
	return g, graph.HashPartition(n, machines), FirstSources(n, w)
}

// build is r's job over s, or w units per vertex, under c.
func (r row[M]) build(t testing.TB, g *graph.Graph, part *graph.Partition, s []graph.VertexID, w int, c execConfig) Job {
	t.Helper()
	c.Mirror = r.mirror
	j, err := r.job(g, part, s, w, c)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// batch is the next batch of w units of j.
func (r row[M]) batch(t testing.TB, j Job, w int) Batch[M] {
	t.Helper()
	b, err := r.next(j, w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newRun prices a run on the row's profile, or the asynchronous one.
func (r row[M]) newRun(async bool, o sim.Observer) *sim.Run {
	sys := sim.PregelPlus
	switch {
	case async:
		sys = sim.GraphLabAsync
	case r.mirror:
		sys = sim.PregelPlusMirror
	}
	return sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(machines), System: sys, Observer: o, Task: sim.TaskMemModel{StateBytesPerEntry: 8}})
}

// asyncModes is synchronous, then asynchronous where the row has the mode.
func (r row[M]) asyncModes() []bool {
	if r.mirror {
		return []bool{false}
	}
	return []bool{false, true}
}

// opts is the engine configuration of batch i under c.
func (r row[M]) opts(c execConfig, i int) engine.Options[M] {
	c.Mirror = r.mirror
	return batchOptions(c, i, r.kind)
}

// bitsOf is m's in-memory bytes: equal bits, not ==, so NaN payloads compare.
func bitsOf[M any](m M) string {
	return string(unsafe.Slice((*byte)(unsafe.Pointer(&m)), unsafe.Sizeof(m)))
}

// codecLaw: every 8-byte record decodes to a message that encodes back to
// it, a message survives the round trip bit for bit, Encode appends, and a
// truncated record never decodes as whole.
func (r row[M]) codecLaw(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	c := r.kind.codec
	for range 2000 {
		b := binary.LittleEndian.AppendUint64(nil, rng.Uint64())
		m, n := c.Decode(b)
		if n != len(b) || !bytes.Equal(c.Encode(nil, m), b) {
			t.Fatalf("record %x decodes to %+v (%d bytes), which encodes to %x", b, m, n, c.Encode(nil, m))
		}
		for i := range len(b) {
			if _, n := c.Decode(b[:i]); n <= i {
				t.Fatalf("a %d-byte prefix of %x decodes as a whole %d-byte record", i, b, n)
			}
		}
		m = r.msg(rng, graph.VertexID(rng.Uint32()))
		enc := c.Encode([]byte{7}, m)
		if got, _ := c.Decode(enc[1:]); enc[0] != 7 || bitsOf(got) != bitsOf(m) {
			t.Fatalf("%+v encodes to %x, which decodes to %+v", m, enc, got)
		}
	}
}

// foldLaw: a declared fold keeps its key and is associative and
// commutative bit for bit over messages of one key.
func (r row[M]) foldLaw(t *testing.T) {
	comb, key := r.kind.combine, r.kind.key
	if comb == nil {
		t.Skip("no fold declared")
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for range 5000 {
		src := graph.VertexID(rng.IntN(1 << 20))
		a, b, c := r.msg(rng, src), r.msg(rng, src), r.msg(rng, src)
		ab := comb(a, b)
		switch {
		case key(a) != key(b) || key(ab) != key(a):
			t.Fatalf("keys %d, %d fold to key %d", key(a), key(b), key(ab))
		case bitsOf(ab) != bitsOf(comb(b, a)):
			t.Fatalf("fold(%+v, %+v) = %+v, but the other order gives %+v", a, b, ab, comb(b, a))
		case bitsOf(comb(ab, c)) != bitsOf(comb(a, comb(b, c))):
			t.Fatalf("fold is not associative over %+v, %+v, %+v", a, b, c)
		}
	}
}

// probe wraps a batch program: it digests every inbox per machine, in
// order, and with loop set makes each SendAll a Send loop.
type probe[M any] struct {
	Batch[M]
	codec  engine.Codec[M]
	loop   bool
	digest [machines]uint64
}

type loopCtx[M any] struct{ vcapi.Context[M] }

func (c loopCtx[M]) SendAll(dsts []graph.VertexID, m M) {
	for _, u := range dsts {
		c.Send(u, m)
	}
}

func (p *probe[M]) ctx(ctx vcapi.Context[M]) vcapi.Context[M] {
	if p.loop {
		return loopCtx[M]{ctx}
	}
	return ctx
}

func (p *probe[M]) Seed(ctx vcapi.Context[M]) { p.Batch.Seed(p.ctx(ctx)) }

func (p *probe[M]) Compute(ctx vcapi.Context[M], v graph.VertexID, msgs []M) {
	h := fnv.New64a()
	buf := binary.LittleEndian.AppendUint64(nil, p.digest[ctx.Machine()])
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ctx.Round())<<32|uint64(v))
	for _, m := range msgs {
		buf = p.codec.Encode(buf, m)
	}
	h.Write(buf)
	p.digest[ctx.Machine()] = h.Sum64()
	p.Batch.Compute(p.ctx(ctx), v, msgs)
}

// roundLog is a sim.Observer keeping every round's per-machine counters.
type roundLog [][]sim.MachineRound

func (l *roundLog) OnBatchStart(int, float64) {}
func (l *roundLog) OnRound(o sim.RoundObservation) {
	*l = append(*l, slices.Clone(o.Stats.PerMachine))
}

// outcome is everything one probed run shows.
type outcome struct {
	digest [machines]uint64
	rounds string
	res    sim.JobResult
	state  []byte
	err    string
}

// finish records a probed run that returned err and folds its batch into
// the job.
func finish[M any](p *probe[M], log roundLog, run *sim.Run, err error) outcome {
	o := outcome{digest: p.digest, rounds: fmt.Sprint(log), res: run.Result(), err: fmt.Sprint(err)}
	o.state, _ = p.AppendState(nil)
	p.Finish()
	return o
}

// sendAllLaw: on every executor the row runs on, a run whose SendAll calls
// are Send loops equals the plain run — inboxes in order, per-machine
// counters, priced result and state.
func (r row[M]) sendAllLaw(t *testing.T) {
	g, part, s := r.fixture(200, 3)
	execs := []string{"engine", "ooc", "gas"}
	if r.mirror {
		execs = execs[:1]
	}
	for _, ex := range execs {
		var runs [2]outcome
		for i, loop := range []bool{false, true} {
			j := r.build(t, g, part, s, 3, execConfig{})
			p := &probe[M]{Batch: r.batch(t, j, 3), codec: r.kind.codec, loop: loop}
			var log roundLog
			run := r.newRun(ex == "gas", &log)
			var err error
			switch c := (execConfig{Seed: 3, Workers: 2}); ex {
			case "gas":
				err = gas.NewAsync(g, part, p, run, gas.Options[M]{Weight: r.kind.weight, Seed: 3}).Run()
			case "ooc":
				c.OOC = &OOCConfig{Dir: t.TempDir(), Partitions: 3}
				fallthrough
			default:
				err = engine.New(g, part, p, run, r.opts(c, 0)).Run()
			}
			runs[i] = finish(p, log, run, err)
		}
		if runs[0].res.TotalLogicalMsgs == 0 || runs[0].err != "<nil>" {
			t.Fatalf("%s: the plain run sent nothing or failed: %s", ex, runs[0].err)
		}
		if !equalOutcomes(runs[0], runs[1]) {
			t.Fatalf("%s: SendAll differs from a Send loop:\n SendAll %+v\n loop    %+v", ex, runs[0], runs[1])
		}
	}
}

func equalOutcomes(a, b outcome) bool {
	return a.digest == b.digest && a.rounds == b.rounds && a.res == b.res && bytes.Equal(a.state, b.state) && a.err == b.err
}

// resetLaw: one engine re-armed with Reset for a sequence of batches in
// every mode — plain, crashed and recovered from a checkpoint, out of core,
// abandoned at its round bound with messages buffered, and combined where
// the row folds — runs each exactly as a fresh engine does.
func (r row[M]) resetLaw(t *testing.T) {
	g, part, s := r.fixture(200, 10)
	fold := r.kind.combine != nil
	steps := []struct {
		mode    string
		combine bool
	}{{"plain", false}, {"crash", fold}, {"ooc", fold}, {"aborted", false}, {"plain", fold}}
	jobs := [2]Job{r.build(t, g, part, s, 10, execConfig{}), r.build(t, g, part, s, 10, execConfig{})}
	var reused *engine.Engine[M]
	for i, st := range steps {
		if r.mirror && st.mode == "ooc" {
			continue
		}
		var got [2]outcome
		for side, fresh := range []bool{true, false} {
			c := execConfig{Seed: 7, Workers: 2, Combine: st.combine}
			switch st.mode {
			case "crash":
				c.CheckpointDir, c.CheckpointInterval, c.Fault = t.TempDir(), 2, mustPlan(t, "crash:worker=0,step=3")
			case "ooc":
				c.OOC = &OOCConfig{Dir: t.TempDir(), Partitions: 3}
			}
			opts := r.opts(c, i)
			if st.mode == "aborted" {
				opts.MaxRounds = 2
			}
			p := &probe[M]{Batch: r.batch(t, jobs[side], 2), codec: r.kind.codec}
			var log roundLog
			run := r.newRun(false, &log)
			e := reused
			if fresh || e == nil {
				e = engine.New(g, part, p, run, opts)
			} else {
				e.Reset(p, run, opts)
			}
			if !fresh {
				reused = e
			}
			got[side] = finish(p, log, run, e.Run())
		}
		if st.mode == "aborted" != (got[0].err != "<nil>") {
			t.Fatalf("step %d (%s): a fresh run returned %s", i, st.mode, got[0].err)
		}
		if !equalOutcomes(got[0], got[1]) {
			t.Fatalf("step %d (%s): Reset diverged from a fresh engine:\nfresh %+v\nreset %+v", i, st.mode, got[0], got[1])
		}
	}
}

func mustPlan(t testing.TB, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// restoreLaw: a batch is checkpointed at every superstep (a delta chain
// where the store has deltas); each checkpoint, restored from disk into a
// fresh program, snapshots back to the live engine's bytes — so a delta
// chain restores its base — and continues to the uninterrupted run's final
// state in as many supersteps. A delta restored without its chain is
// corrupt.
func (r row[M]) restoreLaw(t *testing.T) {
	g, part, s := r.fixture(300, 4)
	opts := r.opts(execConfig{Seed: 3, Workers: 1}, 0)
	fresh := func() (Batch[M], *engine.Engine[M]) {
		p := r.batch(t, r.build(t, g, part, s, 4, execConfig{}), 4)
		return p, engine.New(g, part, p, nil, opts)
	}
	p, e := fresh()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rounds, want := e.Rounds(), mustState(t, p)
	_, e = fresh()
	dir := t.TempDir()
	mgr := &ckpt.Manager{Dir: dir}
	deltas := 0
	for step := 1; step < rounds; step++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		_, delta, err := mgr.Cut(e.SnapshotDelta)
		if err != nil {
			t.Fatal(err)
		}
		if delta {
			deltas++
		}
		snap, _, err := (&ckpt.Manager{Dir: dir}).Latest()
		if err != nil {
			t.Fatal(err)
		}
		p2, e2 := fresh()
		if snap.Prev != nil {
			unlinked := *snap
			unlinked.Prev = nil
			if err := e2.Restore(&unlinked); !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("step %d: a delta restored without its chain: %v", step, err)
			}
		}
		if err := e2.Restore(snap); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if a, b := encodeSnap(t, mustSnapshot(t, e2)), encodeSnap(t, mustSnapshot(t, e)); !bytes.Equal(a, b) {
			t.Fatalf("step %d: the restored checkpoint snapshots to other bytes than the live engine", step)
		}
		if err := e2.Run(); err != nil {
			t.Fatalf("step %d: continuing: %v", step, err)
		}
		if e2.Rounds() != rounds || !bytes.Equal(mustState(t, p2), want) {
			t.Fatalf("step %d: the restored run ends at superstep %d in other state than the uninterrupted run (%d)", step, e2.Rounds(), rounds)
		}
	}
	if _, ok := any(p).(vcapi.DeltaSnapshotter); ok && deltas == 0 {
		t.Fatalf("%d checkpoints wrote no delta", rounds-1)
	}
}

func mustState[M any](t testing.TB, p Batch[M]) []byte {
	t.Helper()
	img, err := p.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func mustSnapshot[M any](t testing.TB, e *engine.Engine[M]) *ckpt.Snapshot {
	t.Helper()
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// encodeSnap is a snapshot's file image.
func encodeSnap(t testing.TB, s *ckpt.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// prefixLaw: a snapshot with any section missing or cut short, an outbox
// forged with a short payload or a message for a vertex its row's machine
// does not own, every strict prefix of a store delta, and every store image
// no run writes, is ckpt.ErrCorrupt on restore, never a panic.
func (r row[M]) prefixLaw(t *testing.T) {
	g, part, s := r.fixture(40, 3)
	e := engine.New(g, part, r.batch(t, r.build(t, g, part, s, 3, execConfig{}), 3), nil, r.opts(execConfig{Seed: 7, Workers: 1}, 0))
	requireCorruptRejected(t, e)
	newBatch, base, delta := r.storeImages(t)
	for n := range len(delta) {
		b := newBatch(t).(vcapi.DeltaSnapshotter)
		if err := b.LoadState(base); err != nil {
			t.Fatal(err)
		}
		if err := b.LoadDelta(delta[:n]); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("a delta cut to %d of %d bytes loads: %v", n, len(delta), err)
		}
	}
	for what, img := range r.forged(base) {
		if err := newBatch(t).LoadState(img); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("%s: LoadState returned %v, want ckpt.ErrCorrupt", what, err)
		}
	}
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
	snap := mustSnapshot(t, e)
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

// invarianceLaw: a job's results are the same at every worker count, out of
// core at every partition count, checkpointed, and crashed and recovered
// mid-chain; its reports are byte-identical across worker counts, and the
// crashed run leaves the fault-free run's checkpoint files.
func (r row[M]) invarianceLaw(t *testing.T) {
	g, part, s := r.fixture(300, 9)
	run := func(name string, c execConfig) (out, report []byte) {
		j := r.build(t, g, part, s, 9, c)
		report = batchedReport(t, r.name+" "+name, j, 3, func() {})
		return r.out(j), report
	}
	want, wantReport := run("workers=1", execConfig{Seed: 5, Workers: 1})
	for _, w := range []int{2, 8} {
		if out, report := run("workers", execConfig{Seed: 5, Workers: w}); !bytes.Equal(out, want) || !bytes.Equal(report, wantReport) {
			t.Fatalf("workers=%d: results or report differ from workers=1", w)
		}
	}
	if !r.mirror {
		for _, p := range []int{1, 3, 7} {
			if out, _ := run("ooc", execConfig{Seed: 5, OOC: &OOCConfig{Dir: t.TempDir(), Partitions: p}}); !bytes.Equal(out, want) {
				t.Fatalf("out of core at %d partitions: results differ from the in-memory run", p)
			}
		}
	}
	clean, crashed := t.TempDir(), t.TempDir()
	if out, _ := run("checkpointed", execConfig{Seed: 5, CheckpointDir: clean, CheckpointInterval: 2}); !bytes.Equal(out, want) {
		t.Fatal("checkpointed run: results differ from the plain run")
	}
	// Mid-chain where the first batch ends on a chain, else right after
	// its first checkpoint.
	crashAt := 3
	if steps := checkpointSteps(t, filepath.Join(clean, "batch000")); len(steps) > 1 {
		crashAt = steps[len(steps)-2] + 1
	}
	plan := mustPlan(t, fmt.Sprintf("crash:worker=1,step=%d", crashAt))
	if out, _ := run("crashed", execConfig{Seed: 5, CheckpointDir: crashed, CheckpointInterval: 2, Fault: plan}); !bytes.Equal(out, want) {
		t.Fatal("crash-recovered run: results differ from the fault-free run")
	}
	if plan.Remaining() != 0 {
		t.Fatal("the planned crash never fired")
	}
	if a, b := readTree(t, clean), readTree(t, crashed); len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("checkpoint files differ: fault-free %d files, crash-recovered %d", len(a), len(b))
	}
}

// checkpointSteps lists the steps of the checkpoints in dir, ascending.
func checkpointSteps(t *testing.T, dir string) []int {
	t.Helper()
	ents, err := os.ReadDir(dir)
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
	slices.Sort(steps)
	return steps
}

// batchedReport runs job in equal batches under a full collector, calling
// beforeBatch ahead of each, and returns the serialized run report.
func batchedReport(t *testing.T, label string, job Job, batches int, beforeBatch func()) []byte {
	t.Helper()
	col := obs.NewCollector(obs.CollectorOptions{Registry: obs.NewRegistry()})
	cfg := testRunCfg(machines)
	cfg.Task = job.MemModel()
	cfg.Observer = col
	run := sim.NewRun(cfg)
	per := job.TotalWorkload() / batches
	for i := 0; i < batches; i++ {
		beforeBatch()
		run.BeginBatch()
		resid, err := job.RunBatch(run, per, i)
		if err != nil {
			t.Fatalf("%s: batch %d: %v", label, i, err)
		}
		run.AddResidual(resid)
	}
	rep := col.Report(obs.RunMeta{
		Task: job.Name(), System: "PregelPlus", Cluster: "Galaxy8",
		Machines: machines, Workload: job.TotalWorkload(), Batches: batches, Seed: 1,
	}, run.Result())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: serialize report: %v", label, err)
	}
	return buf.Bytes()
}

// oracleLaw: in three batches, synchronous and (where the row has the mode)
// asynchronous, a job's results and residual entries match internal/ref.
func (r row[M]) oracleLaw(t *testing.T) {
	n, w := 120, 12
	if !r.sourced {
		n, w = 40, 3000
	}
	g, part, s := r.fixture(n, w)
	for _, async := range r.asyncModes() {
		j := r.build(t, g, part, s, w, execConfig{Seed: 1, Async: async})
		if mm := j.MemModel(); j.Name() == "" || j.TotalWorkload() != w || mm.StateBytesPerEntry <= 0 || mm.ResidualBytesPerEntry <= 0 {
			t.Fatalf("bad job metadata: %q, workload %d, %+v", j.Name(), j.TotalWorkload(), mm)
		}
		r.oracle(t, g, s, j, runBatches(t, j, r.newRun(async, nil), 3))
	}
}

// runBatches runs j in equal batches and returns the residual entries they
// left.
func runBatches(t *testing.T, j Job, run *sim.Run, batches int) (resid int64) {
	t.Helper()
	total := j.TotalWorkload()
	for i := range batches {
		w := total / batches
		if i == batches-1 {
			w = total - w*(batches-1)
		}
		run.BeginBatch()
		rs, err := j.RunBatch(run, w, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range rs {
			resid += e
		}
		run.AddResidual(rs)
	}
	return resid
}

// degenerateLaw: an empty graph and a one-vertex graph run and match the
// oracle; a zero-workload batch and a job with no sources run nothing and
// change nothing; a repeated or out-of-range source is an error.
func (r row[M]) degenerateLaw(t *testing.T) {
	for n := range 2 {
		g := graph.NewBuilder(n, r.weighted).Build()
		part := graph.HashPartition(n, machines)
		s := FirstSources(n, 1)
		for _, async := range r.asyncModes() {
			j := r.build(t, g, part, s, 2, execConfig{Async: async})
			r.oracle(t, g, s, j, runBatches(t, j, r.newRun(async, nil), 1))
		}
	}
	g, part, s := r.fixture(30, 4)
	for _, src := range [][]graph.VertexID{s, nil} {
		if src == nil && !r.sourced {
			continue
		}
		j := r.build(t, g, part, src, 4, execConfig{})
		before := r.out(j)
		run := r.newRun(false, nil)
		w := 0
		if src == nil {
			w = 1 // a job of no sources has nothing to cut
		}
		resid, err := j.RunBatch(run, w, 0)
		if err != nil || slices.ContainsFunc(resid, func(e int64) bool { return e != 0 }) || run.Result().Rounds != 0 ||
			!bytes.Equal(r.out(j), before) {
			t.Fatalf("sources %v, batch of %d: residual %v, error %v, %d rounds, results changed %v",
				src, w, resid, err, run.Result().Rounds, !bytes.Equal(r.out(j), before))
		}
	}
	if !r.sourced {
		return
	}
	for _, bad := range [][]graph.VertexID{{3, 3}, {1, 7, 1}, {30}, {2, 1 << 20}} {
		c := execConfig{Mirror: r.mirror}
		j, err := r.job(g, part, bad, len(bad), c)
		if err == nil {
			_, err = j.RunBatch(r.newRun(false, nil), len(bad), 0)
		}
		if err == nil {
			t.Fatalf("sources %v on %d vertices: no error", bad, g.NumVertices())
		}
	}
}

// The store fuzzers feed arbitrary program sections to the rows' state
// stores, seeded with real images: each must load or fail with
// ckpt.ErrCorrupt, never panic, and a section that loads must save back to
// exactly its bytes. FuzzSourceTableLoad loads the sourced rows' source
// tables, FuzzBPPRLoadState the other rows' endpoint tables, and
// FuzzBPPRLoadDelta every delta store's sections as a delta on top of a
// real base.
func FuzzSourceTableLoad(f *testing.F) { fuzzStores(f, "source tables") }
func FuzzBPPRLoadState(f *testing.F)   { fuzzStores(f, "endpoint tables") }
func FuzzBPPRLoadDelta(f *testing.F)   { fuzzStores(f, "deltas") }

func fuzzStores(f *testing.F, store string) {
	var loads []func(*testing.T, []byte)
	for _, r := range table {
		if load := r.fuzzer(f, store); load != nil {
			loads = append(loads, load)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, load := range loads {
			load(t, data)
		}
	})
}

// storeImages returns a maker of fresh batches of the row, a store image
// two supersteps into one, and, where the store has deltas, the delta of
// the superstep after.
func (r row[M]) storeImages(tb testing.TB) (newBatch func(testing.TB) Batch[M], base, delta []byte) {
	g, part, s := r.fixture(40, 3)
	newBatch = func(tb testing.TB) Batch[M] { return r.batch(tb, r.build(tb, g, part, s, 3, execConfig{}), 3) }
	p := newBatch(tb)
	e := engine.New(g, part, p, nil, r.opts(execConfig{Seed: 7, Workers: 1}, 0))
	for range 2 {
		if err := e.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	base = mustState(tb, p)
	if d, ok := p.(vcapi.DeltaSnapshotter); ok {
		if err := e.Step(); err != nil {
			tb.Fatal(err)
		}
		delta, _ = d.AppendDelta(nil)
	}
	return newBatch, base, delta
}

// fuzzer seeds f with the row's images of store, and returns its loader;
// nil if the row has no such store.
func (r row[M]) fuzzer(f *testing.F, store string) func(*testing.T, []byte) {
	newBatch, base, delta := r.storeImages(f)
	seed := func(img []byte) {
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	switch {
	case store == "deltas" && delta != nil:
		seed(delta)
		return func(t *testing.T, data []byte) {
			j := bpprOf(newBatch(t))
			if err := j.marked(j.loadEndpoints(base)); err != nil {
				t.Fatal(err)
			}
			if err := j.loadTables(data, true); err != nil {
				if !errors.Is(err, ckpt.ErrCorrupt) {
					t.Fatalf("delta load failed with %v, want ckpt.ErrCorrupt", err)
				}
				return
			}
			if got := j.appendTables(nil, true); !bytes.Equal(got, data) {
				t.Fatalf("a loaded delta saves back to %d other bytes (was %d)", len(got), len(data))
			}
		}
	case store == "source tables" && r.sourced, store == "endpoint tables" && !r.sourced:
		seed(base)
		return func(t *testing.T, data []byte) { requireLoadsOrCorrupt(t, newBatch(t), data) }
	}
	return nil
}

// bpprOf is the job behind a BPPR batch program, nil for other programs.
func bpprOf(p any) *BPPRJob {
	switch p := p.(type) {
	case *bpprMC:
		return p.job
	case *bpprPush:
		return p.job
	}
	return nil
}

func requireLoadsOrCorrupt[M any](t *testing.T, prog Batch[M], data []byte) {
	t.Helper()
	if err := prog.LoadState(data); err != nil {
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("load failed with %v, want ckpt.ErrCorrupt", err)
		}
		return
	}
	if got := mustState(t, prog); !bytes.Equal(got, data) {
		t.Fatalf("a loaded section saves back to %d other bytes (was %d)", len(got), len(data))
	}
}

// The rows.

func msspRow(name string, mirror, weighted bool) row[DistMsg] {
	return row[DistMsg]{
		name: name, kind: distKind, mirror: mirror, weighted: weighted, sourced: true,
		job: func(g *graph.Graph, part *graph.Partition, s []graph.VertexID, _ int, c execConfig) (Job, error) {
			return NewMSSP(g, part, MSSPConfig{Sources: s, Mirror: c.Mirror, Async: c.Async, Seed: c.Seed, Workers: c.Workers,
				CheckpointDir: c.CheckpointDir, CheckpointInterval: c.CheckpointInterval, Fault: c.Fault, OOC: c.OOC, Combine: c.Combine})
		},
		next: func(j Job, w int) (Batch[DistMsg], error) { return j.(*MSSPJob).next(w) },
		out: func(j Job) (out []byte) {
			m := j.(*MSSPJob)
			for i := range m.sources {
				for v := range m.g.NumVertices() {
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.Distance(i, graph.VertexID(v))))
				}
			}
			return out
		},
		oracle: func(t *testing.T, g *graph.Graph, s []graph.VertexID, j Job, resid int64) {
			m, tol := j.(*MSSPJob), 0.0
			if weighted {
				tol = 1e-4
			}
			requireDistances(t, m, distancesBy(m, ref.Dijkstra), tol)
			var finite int64
			for i := range s {
				for v := range graph.VertexID(g.NumVertices()) {
					if !math.IsInf(m.Distance(i, v), 1) {
						finite++
					}
				}
			}
			if resid != finite {
				t.Fatalf("residual entries %d, finite distances %d", resid, finite)
			}
		},
		msg:    func(r *rand.Rand, src graph.VertexID) DistMsg { return DistMsg{src, float32(r.IntN(8))} },
		forged: otherBatchSize,
	}
}

// otherBatchSize is a source table image claiming one more source.
func otherBatchSize(img []byte) map[string][]byte {
	return map[string][]byte{"another batch size": append(binary.LittleEndian.AppendUint32(nil, 1+binary.LittleEndian.Uint32(img)), img[4:]...)}
}

func bkhsRow(name string, mirror bool) row[HopMsg] {
	const k = 3
	return row[HopMsg]{
		name: name, kind: hopKind, mirror: mirror, sourced: true,
		job: func(g *graph.Graph, part *graph.Partition, s []graph.VertexID, _ int, c execConfig) (Job, error) {
			return NewBKHS(g, part, BKHSConfig{Sources: s, K: k, Mirror: c.Mirror, Async: c.Async, Seed: c.Seed, Workers: c.Workers,
				CheckpointDir: c.CheckpointDir, CheckpointInterval: c.CheckpointInterval, Fault: c.Fault, OOC: c.OOC, Combine: c.Combine}), nil
		},
		next: func(j Job, w int) (Batch[HopMsg], error) { return j.(*BKHSJob).next(w) },
		out:  func(j Job) []byte { return fmt.Append(nil, j.(*BKHSJob).reached) },
		oracle: func(t *testing.T, g *graph.Graph, s []graph.VertexID, j Job, resid int64) {
			requireReached(t, j.(*BKHSJob), k)
			entries := int64(len(s))
			for i := range s {
				entries += j.(*BKHSJob).Reached(i)
			}
			if resid != entries {
				t.Fatalf("residual entries %d, reached pairs %d", resid, entries)
			}
		},
		msg:    func(r *rand.Rand, src graph.VertexID) HopMsg { return HopMsg{src, int32(r.IntN(8))} },
		forged: otherBatchSize,
	}
}

func bpprRow[M any](name string, mirror bool, kind msgKind[M], tol float64,
	prog func(*bpprBatch) Batch[M], msg func(*rand.Rand, graph.VertexID) M) row[M] {
	return row[M]{
		name: name, kind: kind, mirror: mirror,
		job: func(g *graph.Graph, part *graph.Partition, _ []graph.VertexID, w int, c execConfig) (Job, error) {
			return NewBPPR(g, part, BPPRConfig{WalksPerNode: w, Mirror: c.Mirror, Async: c.Async, Seed: c.Seed,
				Workers: c.Workers, CheckpointDir: c.CheckpointDir, CheckpointInterval: c.CheckpointInterval, Fault: c.Fault, OOC: c.OOC,
				Combine: c.Combine}), nil
		},
		next: func(j Job, w int) (Batch[M], error) { return prog(j.(*BPPRJob).nextBatch(w)), nil },
		out: func(j Job) (out []byte) {
			b := j.(*BPPRJob)
			for m := range b.endpoints {
				b.EachEndpoint(m, func(src, v graph.VertexID, walks float64) {
					out = binary.LittleEndian.AppendUint64(out, pairKey(src, v))
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(walks))
				})
			}
			return out
		},
		oracle: func(t *testing.T, g *graph.Graph, _ []graph.VertexID, j Job, resid int64) {
			b, n := j.(*BPPRJob), g.NumVertices()
			requirePPR(t, b, FirstSources(n, 3), tol)
			requireMass(t, b, FirstSources(n, n), float64(b.launched), 1e-6*float64(b.launched))
			if resid != b.EndpointEntries() {
				t.Fatalf("residual entries %d, endpoint entries %d", resid, b.EndpointEntries())
			}
		},
		msg: msg,
		forged: func(img []byte) map[string][]byte {
			k := int(binary.LittleEndian.Uint32(img))
			forge := func(entries ...endpoint) []byte {
				out := binary.LittleEndian.AppendUint32(nil, uint32(k))
				out = binary.LittleEndian.AppendUint64(out, uint64(len(entries)))
				for _, en := range entries {
					out = binary.LittleEndian.AppendUint64(out, en.key)
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(en.mass))
				}
				return append(out, make([]byte, 8*(k-1))...)
			}
			return map[string][]byte{
				"a repeated pair": forge(endpoint{1, 2}, endpoint{3, 1}, endpoint{1, 2}),
				"a zero mass":     forge(endpoint{1, 2}, endpoint{2, 0}),
				"a negative mass": forge(endpoint{1, -1}),
				"a NaN mass":      forge(endpoint{1, math.NaN()}),
			}
		},
	}
}
