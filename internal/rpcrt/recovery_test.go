package rpcrt

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vcmt/internal/ckpt"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
)

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runMSSPWithFaults runs one MSSP job checkpointing into dir, with an
// optional fault plan, returning distances, rounds, messages, and worker
// stats.
func runMSSPWithFaults(t *testing.T, g *graph.Graph, k int, sources []graph.VertexID, dir, planSpec string) ([][]float64, int, int64, []WorkerStats, *Cluster) {
	t.Helper()
	c := startTestCluster(t, g, k)
	c.SetCheckpoint(dir, 2)
	if planSpec != "" {
		c.SetFaultPlan(mustPlan(t, planSpec))
	}
	dist, err := c.RunMSSP(sources)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	return dist, c.Rounds(), c.MessagesSent(), st, c
}

// TestMSSPCrashRecoveryMatchesFaultFree is the deterministic-recovery
// contract on the RPC runtime: a run that crashes a worker mid-job and
// recovers from the checkpoint must equal the fault-free run in results,
// round count, message totals and every per-worker conservation counter —
// even in the fault-free run's checkpoint directory, whose later snapshots
// must not be restored in place of the crashed run's own.
func TestMSSPCrashRecoveryMatchesFaultFree(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.5, 3)
	sources := []graph.VertexID{0, 7, 42}
	for _, k := range []int{1, 4, 8} {
		dir := t.TempDir()
		baseDist, baseRounds, baseMsgs, baseStats, _ := runMSSPWithFaults(t, g, k, sources, dir, "")
		crash := "crash:worker=0,step=4"
		if k > 1 {
			crash = "crash:worker=1,step=4"
		}
		dist, rounds, msgs, stats, c := runMSSPWithFaults(t, g, k, sources, dir, crash)
		if c.Recoveries() != 1 {
			t.Fatalf("k=%d: recoveries=%d want 1", k, c.Recoveries())
		}
		if c.RoundsLost() != 1 {
			t.Fatalf("k=%d: rounds lost=%d want 1 (crash at 4, checkpoint at 2, round 3 replayed)", k, c.RoundsLost())
		}
		if rounds != baseRounds || msgs != baseMsgs {
			t.Fatalf("k=%d: rounds/msgs %d/%d, fault-free %d/%d", k, rounds, msgs, baseRounds, baseMsgs)
		}
		for i := range sources {
			for v := 0; v < g.NumVertices(); v++ {
				a, b := baseDist[i][v], dist[i][v]
				if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
					t.Fatalf("k=%d src %d v %d: fault-free %v recovered %v", k, sources[i], v, a, b)
				}
			}
		}
		for i := range stats {
			a, b := baseStats[i], stats[i]
			if a.Sent != b.Sent || a.Recv != b.Recv || a.Retries != b.Retries {
				t.Fatalf("k=%d worker %d counters diverge: fault-free %+v recovered %+v", k, i, a, b)
			}
			// Exact wire-byte counters are checkpointed and re-accumulated
			// during silent replay, so they match a fault-free run too.
			if a.SentBytes != b.SentBytes || a.RecvBytes != b.RecvBytes ||
				a.SentFrames != b.SentFrames || a.RecvFrames != b.RecvFrames {
				t.Fatalf("k=%d worker %d byte counters diverge: fault-free %+v recovered %+v", k, i, a, b)
			}
			for p := range a.SentByPeer {
				if a.SentByPeer[p] != b.SentByPeer[p] || a.RecvByPeer[p] != b.RecvByPeer[p] {
					t.Fatalf("k=%d worker %d per-peer counters diverge at %d", k, i, p)
				}
			}
		}
	}
}

// TestBPPRCrashRecoveryBitIdentical checks the hard case: a randomized
// program. The checkpoint carries the worker RNG stream positions, so the
// recovered run must reproduce the fault-free walk endpoints, supersteps
// and message count exactly — in the fault-free run's checkpoint directory.
func TestBPPRCrashRecoveryBitIdentical(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.4, 9)
	const walks, alpha, seed = 200, 0.15, 3
	dir := t.TempDir()

	run := func(planSpec string) (map[[2]graph.VertexID]float64, *Cluster) {
		c := startTestCluster(t, g, 3)
		c.SetCheckpoint(dir, 1)
		if planSpec != "" {
			c.SetFaultPlan(mustPlan(t, planSpec))
		}
		ppr, err := c.RunBPPR(walks, alpha, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ppr, c
	}

	base, bc := run("")
	got, c := run("crash:worker=2,step=3")
	if c.Recoveries() != 1 {
		t.Fatalf("recoveries=%d want 1", c.Recoveries())
	}
	if c.Rounds() != bc.Rounds() || c.MessagesSent() != bc.MessagesSent() {
		t.Fatalf("supersteps/messages %d/%d, fault-free %d/%d", c.Rounds(), c.MessagesSent(), bc.Rounds(), bc.MessagesSent())
	}
	if len(base) != len(got) {
		t.Fatalf("endpoint sets differ: %d vs %d entries", len(base), len(got))
	}
	for key, p := range base {
		if got[key] != p {
			t.Fatalf("PPR(%d,%d): fault-free %v recovered %v", key[0], key[1], p, got[key])
		}
	}
}

// TestEveryCrashPointMatchesFaultFree is the exhaustive crash axis: on a
// 200-vertex graph with 2 workers and a checkpoint every 2 supersteps, crash
// at every (superstep, worker) pair of every task and require the recovered
// job to equal the fault-free one in results, supersteps and messages. A
// restarted worker replays the engine's own program from its engine's own
// snapshot, so this is cheap enough to be exhaustive. Every job of a task
// checkpoints into one directory, so each crashed job starts among the
// previous job's snapshots; the fault-free job must leave exactly one
// snapshot per worker, holding its engine's outbox, rng and prog sections
// and the counters.
func TestEveryCrashPointMatchesFaultFree(t *testing.T) {
	g := graph.WithUniformWeights(graph.GenerateChungLu(200, 800, 2.5, 21), 1, 4, 22)
	sources := []graph.VertexID{3, 77, 150}
	jobs := []struct {
		name string
		run  func(c *Cluster) (any, error)
	}{
		{"mssp", func(c *Cluster) (any, error) { return c.RunMSSP(sources) }},
		{"bkhs", func(c *Cluster) (any, error) { return c.RunBKHS(sources, 3) }},
		{"bppr", func(c *Cluster) (any, error) { return c.RunBPPR(4, 0.3, 5) }},
	}
	const k = 2
	for _, job := range jobs {
		dir := t.TempDir()
		run := func(plan string) (res any, rounds int, msgs int64, recoveries int) {
			t.Helper()
			c, err := StartCluster(g, k)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetCheckpoint(dir, 2)
			if plan != "" {
				c.SetFaultPlan(mustPlan(t, plan))
			}
			if res, err = job.run(c); err != nil {
				t.Fatalf("%s %s: %v", job.name, plan, err)
			}
			return res, c.Rounds(), c.MessagesSent(), c.Recoveries()
		}
		want, rounds, msgs, _ := run("")
		t.Logf("%s: %d supersteps", job.name, rounds)
		if rounds < 4 {
			t.Fatalf("%s: only %d supersteps, the axis needs a multi-round job", job.name, rounds)
		}
		requireWorkerSnapshots(t, dir, k)
		for step := 2; step <= rounds; step++ {
			for worker := 0; worker < k; worker++ {
				plan := fmt.Sprintf("crash:worker=%d,step=%d", worker, step)
				got, r, m, recoveries := run(plan)
				if recoveries != 1 {
					t.Fatalf("%s %s: %d recoveries, want 1", job.name, plan, recoveries)
				}
				if r != rounds || m != msgs {
					t.Fatalf("%s %s: %d supersteps / %d messages, fault-free %d / %d", job.name, plan, r, m, rounds, msgs)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: recovered results differ from the fault-free run", job.name, plan)
				}
			}
		}
	}
}

// requireWorkerSnapshots checks a finished job's checkpoint directory:
// exactly one snapshot per worker, whose sections are exactly the engine's
// outbox, rng and prog plus counters — the barrier round lives in the
// snapshot's Step.
func requireWorkerSnapshots(t *testing.T, dir string, k int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+ckpt.FileSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != k {
		t.Fatalf("%d snapshots in %s, want one per worker (%d)", len(paths), dir, k)
	}
	for _, p := range paths {
		snap, err := ckpt.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, sec := range snap.Sections {
			names = append(names, sec.Name)
		}
		if got := strings.Join(names, ","); got != "outbox,rng,prog,counters" || snap.Step < 1 {
			t.Fatalf("%s: step %d with sections %s, want outbox,rng,prog,counters", filepath.Base(p), snap.Step, got)
		}
	}
}

// TestRecoveryTelemetry checks the registry view of a recovered job: the
// per-round histograms contain every round exactly once (replays are not
// re-observed), and the recovery counters record the event.
func TestRecoveryTelemetry(t *testing.T) {
	g := graph.GenerateChungLu(120, 480, 2.4, 11)
	c := startTestCluster(t, g, 3)
	reg := obs.NewRegistry()
	c.SetRegistry(reg)
	c.SetCheckpoint(t.TempDir(), 2)
	c.SetFaultPlan(mustPlan(t, "crash:worker=0,step=4"))
	if _, err := c.RunMSSP([]graph.VertexID{1, 30}); err != nil {
		t.Fatal(err)
	}
	msgs := reg.Histogram("rpcrt_round_msgs").Stats()
	if int(msgs.Count) != c.Rounds() {
		t.Fatalf("round histogram count %d != rounds %d (replays must not re-observe)", msgs.Count, c.Rounds())
	}
	if int64(msgs.Sum) != c.MessagesSent() {
		t.Fatalf("round histogram sum %v != messages %d", msgs.Sum, c.MessagesSent())
	}
	if got := reg.Counter("rpcrt_recoveries_total").Value(); got != 1 {
		t.Fatalf("recoveries counter=%d want 1", got)
	}
	if got := reg.Counter("rpcrt_ckpt_writes_total").Value(); got <= 0 {
		t.Fatal("no checkpoint writes recorded")
	}
	if got := reg.Counter("rpcrt_worker_restarts_total").Value(); got != 1 {
		t.Fatalf("restarts counter=%d want 1", got)
	}
}

// TestCrashWithoutCheckpointFailsJob: with no checkpoint configured, an
// injected crash is fatal to the job (and reported, not hung).
func TestCrashWithoutCheckpointFailsJob(t *testing.T) {
	g := graph.GenerateChungLu(80, 320, 2.5, 5)
	c := startTestCluster(t, g, 2)
	c.SetFaultPlan(mustPlan(t, "crash:worker=1,step=3"))
	_, err := c.RunMSSP([]graph.VertexID{0})
	// The broadcast may surface either the crash itself or a surviving
	// worker's failed delivery to the dead peer, whichever worker index is
	// lower.
	if err == nil || !(strings.Contains(err.Error(), "injected crash") || strings.Contains(err.Error(), workerDownMsg)) {
		t.Fatalf("want crash-surface error, got %v", err)
	}
}

// TestDelayFaultTripsRPCTimeout: a planned delay longer than the RPC
// deadline surfaces as a timeout error instead of blocking forever.
func TestDelayFaultTripsRPCTimeout(t *testing.T) {
	g := graph.GenerateChungLu(80, 320, 2.5, 5)
	c := startTestCluster(t, g, 2)
	c.SetRPCTimeout(100 * time.Millisecond)
	c.SetFaultPlan(mustPlan(t, "delay:worker=0,step=2,ms=2000"))
	_, err := c.RunMSSP([]graph.VertexID{0})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout error, got %v", err)
	}
}

// TestDropFaultRetriesAndConserves: dropped deliveries are retried with
// backoff; fewer drops than attempts means the job completes with correct
// results and intact conservation counters.
func TestDropFaultRetriesAndConserves(t *testing.T) {
	g := graph.GenerateChungLu(100, 400, 2.5, 7)
	c := startTestCluster(t, g, 3)
	c.SetFaultPlan(mustPlan(t, "drop:from=0,to=1,step=2,count=2"))
	base := startTestCluster(t, g, 3)
	want, err := base.RunMSSP([]graph.VertexID{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunMSSP([]graph.VertexID{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for v := range want[i] {
			a, b := want[i][v], got[i][v]
			if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
				t.Fatalf("src %d v %d: %v vs %v", i, v, a, b)
			}
		}
	}
	stats, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	var sent, recv int64
	retried := false
	for _, st := range stats {
		sent += st.Sent
		recv += st.Recv
		if st.Retries > 0 {
			retried = true
		}
	}
	if !retried {
		t.Fatal("drop fault never triggered a retry")
	}
	if sent != recv {
		t.Fatalf("conservation broken: sent %d recv %d", sent, recv)
	}
}

// TestSlowFaultKeepsResults: a slowdown stretches wall time but cannot
// change any result or counter.
func TestSlowFaultKeepsResults(t *testing.T) {
	g := graph.GenerateChungLu(80, 320, 2.5, 13)
	c := startTestCluster(t, g, 2)
	c.SetFaultPlan(mustPlan(t, "slow:worker=0,step=2,factor=3"))
	base := startTestCluster(t, g, 2)
	want, err := base.RunMSSP([]graph.VertexID{4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunMSSP([]graph.VertexID{4})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want[0] {
		a, b := want[0][v], got[0][v]
		if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
			t.Fatalf("v %d: %v vs %v", v, a, b)
		}
	}
}

// TestCloseIsIdempotent: double Close is safe and reports nil; a cluster
// that lost a worker mid-job still closes cleanly (already-dead sockets are
// not errors).
func TestCloseIsIdempotent(t *testing.T) {
	g := graph.GenerateRing(12)
	c, err := StartCluster(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestCloseAfterCrashedWorker: Close after a crash-recovery cycle must not
// report the dead worker's closed listener as an error.
func TestCloseAfterCrashedWorker(t *testing.T) {
	g := graph.GenerateChungLu(80, 320, 2.5, 5)
	c, err := StartCluster(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCheckpoint(t.TempDir(), 1)
	c.SetFaultPlan(mustPlan(t, "crash:worker=1,step=3"))
	if _, err := c.RunMSSP([]graph.VertexID{0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestTwoCrashesSameJob: two distinct crashes in one job, both recovered,
// in the fault-free run's checkpoint directory.
func TestTwoCrashesSameJob(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.5, 3)
	sources := []graph.VertexID{0, 7, 42}
	dir := t.TempDir()
	baseDist, baseRounds, baseMsgs, _, _ := runMSSPWithFaults(t, g, 4, sources, dir, "")
	dist, rounds, msgs, _, c := runMSSPWithFaults(t, g, 4, sources, dir, "crash:worker=1,step=3;crash:worker=2,step=5")
	if c.Recoveries() != 2 {
		t.Fatalf("recoveries=%d want 2", c.Recoveries())
	}
	if rounds != baseRounds || msgs != baseMsgs {
		t.Fatalf("rounds/msgs %d/%d, fault-free %d/%d", rounds, msgs, baseRounds, baseMsgs)
	}
	for i := range sources {
		for v := 0; v < g.NumVertices(); v++ {
			a, b := baseDist[i][v], dist[i][v]
			if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
				t.Fatalf("src %d v %d: fault-free %v recovered %v", sources[i], v, a, b)
			}
		}
	}
}

// TestClusterWorksAfterRecovery runs jobs on a cluster that has recovered
// from a crash: recovery restarts the dead worker and re-wires every peer
// connection, so the MSSP job it recovered and the BKHS and BPPR jobs run
// after it must equal a fresh cluster's in results, supersteps, messages
// and every worker's counters.
func TestClusterWorksAfterRecovery(t *testing.T) {
	g := graph.WithUniformWeights(graph.GenerateChungLu(150, 600, 2.5, 3), 1, 4, 4)
	sources := []graph.VertexID{0, 7, 42}
	type outcome struct {
		res    any
		rounds int
		msgs   int64
		stats  []WorkerStats
	}
	jobs := []func(c *Cluster) (any, error){
		func(c *Cluster) (any, error) { return c.RunMSSP(sources) },
		func(c *Cluster) (any, error) { return c.RunBKHS(sources, 3) },
		func(c *Cluster) (any, error) { return c.RunBPPR(20, 0.2, 5) },
	}
	run := func(plan string) (out []outcome, recoveries int) {
		t.Helper()
		c := startTestCluster(t, g, 3)
		c.SetCheckpoint(t.TempDir(), 2)
		if plan != "" {
			c.SetFaultPlan(mustPlan(t, plan))
		}
		for i, job := range jobs {
			res, err := job(c)
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			stats, err := c.WorkerStats()
			if err != nil {
				t.Fatalf("job %d stats: %v", i, err)
			}
			out = append(out, outcome{res, c.Rounds(), c.MessagesSent(), stats})
			recoveries += c.Recoveries()
		}
		return out, recoveries
	}
	want, _ := run("")
	got, recoveries := run("crash:worker=1,step=4")
	if recoveries != 1 {
		t.Fatalf("%d recoveries, want 1", recoveries)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("job %d after recovery: %d supersteps / %d messages / stats %+v, fresh cluster %d / %d / %+v (results equal: %v)",
				i, got[i].rounds, got[i].msgs, got[i].stats, want[i].rounds, want[i].msgs, want[i].stats,
				reflect.DeepEqual(got[i].res, want[i].res))
		}
	}
}
