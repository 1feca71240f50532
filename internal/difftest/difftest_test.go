package difftest

import (
	"fmt"
	"math"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/ref"
	"vcmt/internal/rpcrt"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// seeds drives every differential scenario; each seed generates its own
// graph and RNG streams.
var seeds = []uint64{1, 2, 3}

// workerGrid is the set of engine worker-pool sizes that must agree
// bit-for-bit. The container running the tests may have a single CPU, so
// the sizes are pinned explicitly rather than derived from GOMAXPROCS.
var workerGrid = []int{1, 2, 8}

const (
	nVertices = 300
	nEdges    = 1200
	nMachines = 4
)

// roundRecorder captures each priced superstep's logical message count via
// the sim observer hook, so two engine runs can be compared round by round,
// and the run's physical message total, which a cluster run must reproduce.
type roundRecorder struct {
	perRound []int64
	physical int64
}

func (r *roundRecorder) OnBatchStart(int, float64) {}
func (r *roundRecorder) OnRound(o sim.RoundObservation) {
	r.perRound = append(r.perRound, o.Stats.TotalSentLogical())
	r.physical += o.Stats.TotalSentPhysical()
}

// startCluster starts the rpcrt axis: nMachines workers, worker i hosting
// what the engine runs as machine i.
func startCluster(t *testing.T, g *graph.Graph) *rpcrt.Cluster {
	t.Helper()
	cluster, err := rpcrt.StartCluster(g, nMachines)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return cluster
}

// requireEngineShape checks that a finished cluster job ran the engine's
// supersteps and sent the engine's messages.
func requireEngineShape(t *testing.T, label string, cluster *rpcrt.Cluster, eng *roundRecorder) {
	t.Helper()
	if got, want := cluster.Rounds(), len(eng.perRound); got != want {
		t.Fatalf("%s: cluster ran %d supersteps, engine %d", label, got, want)
	}
	if got, want := cluster.MessagesSent(), eng.physical; got != want {
		t.Fatalf("%s: cluster sent %d messages, engine %d", label, got, want)
	}
}

func newRun(rec *roundRecorder) *sim.Run {
	return sim.NewRun(sim.JobConfig{
		Cluster:  sim.Galaxy8.WithMachines(nMachines),
		System:   sim.PregelPlus,
		Observer: rec,
	})
}

func requireSameRounds(t *testing.T, label string, base, other *roundRecorder, workers int) {
	t.Helper()
	if len(base.perRound) != len(other.perRound) {
		t.Fatalf("%s: workers=%d ran %d rounds, workers=1 ran %d",
			label, workers, len(other.perRound), len(base.perRound))
	}
	for r := range base.perRound {
		if base.perRound[r] != other.perRound[r] {
			t.Fatalf("%s: round %d sent %d msgs at workers=%d vs %d at workers=1",
				label, r+1, other.perRound[r], workers, base.perRound[r])
		}
	}
}

// TestMSSPDifferential checks multi-source shortest paths three ways on a
// weighted graph: the engine at every worker count and the RPC cluster must
// report the same distances bit for bit, and Dijkstra must agree with them.
func TestMSSPDifferential(t *testing.T) {
	for _, seed := range seeds {
		g := graph.WithUniformWeights(
			graph.GenerateChungLu(nVertices, nEdges, 2.5, seed), 1, 4, seed+100)
		part := graph.HashPartition(nVertices, nMachines)
		sources := []graph.VertexID{0, graph.VertexID(seed * 7 % nVertices), 211}

		runEngine := func(workers int) (*tasks.MSSPJob, *roundRecorder) {
			job, err := tasks.NewMSSP(g, part, tasks.MSSPConfig{
				Sources: sources, Seed: seed, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := &roundRecorder{}
			run := newRun(rec)
			run.BeginBatch()
			if _, err := job.RunBatch(run, len(sources), 0); err != nil {
				t.Fatal(err)
			}
			return job, rec
		}

		baseJob, baseRec := runEngine(1)
		for _, w := range workerGrid[1:] {
			job, rec := runEngine(w)
			requireSameRounds(t, "mssp", baseRec, rec, w)
			for i := range sources {
				for v := 0; v < nVertices; v++ {
					a := baseJob.Distance(i, graph.VertexID(v))
					b := job.Distance(i, graph.VertexID(v))
					if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
						t.Fatalf("seed %d src %d v %d: workers=1 %v workers=%d %v",
							seed, sources[i], v, a, w, b)
					}
				}
			}
		}

		cluster := startCluster(t, g)
		rpcDist, err := cluster.RunMSSP(sources)
		if err != nil {
			t.Fatal(err)
		}
		requireEngineShape(t, fmt.Sprintf("mssp seed %d", seed), cluster, baseRec)

		for i, s := range sources {
			exact := ref.Dijkstra(g, s)
			for v := 0; v < nVertices; v++ {
				eng := baseJob.Distance(i, graph.VertexID(v))
				if rpc := rpcDist[i][v]; rpc != eng {
					t.Fatalf("seed %d src %d v %d: rpc %v engine %v", seed, s, v, rpc, eng)
				}
				if math.IsInf(exact[v], 1) {
					if !math.IsInf(eng, 1) {
						t.Fatalf("seed %d src %d v %d: want unreachable, engine %v", seed, s, v, eng)
					}
					continue
				}
				if math.Abs(eng-exact[v]) > 1e-4 {
					t.Fatalf("seed %d src %d v %d: engine %v oracle %v", seed, s, v, eng, exact[v])
				}
			}
		}
	}
}

// TestBKHSDifferential checks k-bounded multi-source BFS reach counts three
// ways: engine at every worker count, the KHop oracle, and the RPC cluster.
func TestBKHSDifferential(t *testing.T) {
	const k = 2
	for _, seed := range seeds {
		g := graph.GenerateChungLu(nVertices, nEdges, 2.4, seed)
		part := graph.HashPartition(nVertices, nMachines)
		sources := []graph.VertexID{1, graph.VertexID(seed * 13 % nVertices), 250}

		runEngine := func(workers int) (*tasks.BKHSJob, *roundRecorder) {
			job := tasks.NewBKHS(g, part, tasks.BKHSConfig{
				Sources: sources, K: k, Seed: seed, Workers: workers,
			})
			rec := &roundRecorder{}
			run := newRun(rec)
			run.BeginBatch()
			if _, err := job.RunBatch(run, len(sources), 0); err != nil {
				t.Fatal(err)
			}
			return job, rec
		}

		baseJob, baseRec := runEngine(1)
		for _, w := range workerGrid[1:] {
			job, rec := runEngine(w)
			requireSameRounds(t, "bkhs", baseRec, rec, w)
			for i := range sources {
				if a, b := baseJob.Reached(i), job.Reached(i); a != b {
					t.Fatalf("seed %d src %d: workers=1 reached %d, workers=%d reached %d",
						seed, sources[i], a, w, b)
				}
			}
		}

		cluster := startCluster(t, g)
		rpcCounts, err := cluster.RunBKHS(sources, k)
		if err != nil {
			t.Fatal(err)
		}
		requireEngineShape(t, fmt.Sprintf("bkhs seed %d", seed), cluster, baseRec)

		for i, s := range sources {
			want := int64(len(ref.KHop(g, s, k)))
			if got := baseJob.Reached(i); got != want {
				t.Fatalf("seed %d src %d: engine reached %d oracle %d", seed, s, got, want)
			}
			if rpcCounts[i] != baseJob.Reached(i) {
				t.Fatalf("seed %d src %d: rpc reached %d engine %d", seed, s, rpcCounts[i], baseJob.Reached(i))
			}
		}
	}
}

// TestBPPRDifferential checks Batch Personalized PageRank three ways. The
// RNG streams are per logical machine and a cluster worker hosts the
// engine's program as machine = worker id, handing every vertex its
// messages in the engine's delivery order, so the estimates must be
// bit-identical across worker counts and between engine and cluster — the
// one randomized task is what makes the delivery order observable. Against
// the power-iteration oracle the checks are statistical: exact mass
// conservation plus estimate accuracy.
func TestBPPRDifferential(t *testing.T) {
	const (
		walks = 3000
		alpha = 0.2
	)
	for _, seed := range seeds {
		g := graph.GenerateChungLu(60, 240, 2.5, seed)
		n := g.NumVertices()
		part := graph.HashPartition(n, nMachines)

		runEngine := func(workers int) (*tasks.BPPRJob, *roundRecorder) {
			job := tasks.NewBPPR(g, part, tasks.BPPRConfig{
				Alpha: alpha, WalksPerNode: walks, Seed: seed, Workers: workers,
			})
			rec := &roundRecorder{}
			run := newRun(rec)
			run.BeginBatch()
			if _, err := job.RunBatch(run, walks, 0); err != nil {
				t.Fatal(err)
			}
			return job, rec
		}

		baseJob, baseRec := runEngine(1)
		for _, w := range workerGrid[1:] {
			job, rec := runEngine(w)
			requireSameRounds(t, "bppr", baseRec, rec, w)
			for src := 0; src < n; src++ {
				for v := 0; v < n; v++ {
					a := baseJob.Estimate(graph.VertexID(src), graph.VertexID(v))
					b := job.Estimate(graph.VertexID(src), graph.VertexID(v))
					if a != b {
						t.Fatalf("seed %d PPR(%d,%d): workers=1 %v workers=%d %v",
							seed, src, v, a, w, b)
					}
				}
			}
		}

		cluster := startCluster(t, g)
		rpcEnds, err := cluster.RunBPPR(walks, alpha, seed)
		if err != nil {
			t.Fatal(err)
		}
		requireEngineShape(t, fmt.Sprintf("bppr seed %d", seed), cluster, baseRec)
		if got, want := int64(len(rpcEnds)), baseJob.EndpointEntries(); got != want {
			t.Fatalf("seed %d: rpc recorded %d endpoint pairs, engine %d", seed, got, want)
		}
		for src := 0; src < n; src++ {
			for v := 0; v < n; v++ {
				eng := baseJob.Estimate(graph.VertexID(src), graph.VertexID(v))
				if rpc := rpcEnds[[2]graph.VertexID{graph.VertexID(src), graph.VertexID(v)}]; rpc != eng {
					t.Fatalf("seed %d PPR(%d,%d): rpc %v engine %v", seed, src, v, rpc, eng)
				}
			}
		}

		checkSrcs := []graph.VertexID{0, graph.VertexID(seed % uint64(n)), graph.VertexID(n - 1)}
		for _, src := range checkSrcs {
			if m := baseJob.EndpointMass(src); m != walks {
				t.Fatalf("seed %d src %d: engine mass %v want %d", seed, src, m, walks)
			}
			exact := ref.PPR(g, src, alpha, 300)
			for v := 0; v < n; v++ {
				eng := baseJob.Estimate(src, graph.VertexID(v))
				if math.Abs(eng-exact[v]) > 0.03 {
					t.Fatalf("seed %d PPR(%d,%d): engine %.4f oracle %.4f", seed, src, v, eng, exact[v])
				}
			}
		}
	}
}
