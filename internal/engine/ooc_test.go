package engine

import (
	"reflect"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/ooc"
	"vcmt/internal/sim"
)

// pricedRound is what the cost model made of one round, apart from the
// out-of-core counters.
type pricedRound struct {
	round, batch int
	logical      int64
	res          sim.RoundResult
}

// roundLog is a sim.Observer keeping every priced round.
type roundLog []pricedRound

func (l *roundLog) OnBatchStart(int, float64) {}
func (l *roundLog) OnRound(o sim.RoundObservation) {
	*l = append(*l, pricedRound{o.Round, o.Batch, o.Stats.TotalSentLogical(), o.Result})
}

// oocJob runs BFS in memory (oo == nil) or out of core over a k-machine
// partition and returns the program, the job result and the priced rounds.
func oocJob(t *testing.T, g *graph.Graph, k int, oo *OOCOptions) (*bfsProg, sim.JobResult, roundLog) {
	t.Helper()
	part := graph.HashPartition(g.NumVertices(), k)
	var rounds roundLog
	run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(k), System: sim.PregelPlus, Observer: &rounds})
	prog := newBFS(g.NumVertices(), 0)
	e := New[hopMsg](g, part, prog, run, Options[hopMsg]{Seed: 42, OOC: oo, Codec: hopCodec{}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res := run.Result()
	if oo != nil {
		if res.OOCWriteBytes <= 0 || res.OOCReadBytes <= 0 {
			t.Fatalf("ooc run reported no IO: read=%d write=%d", res.OOCReadBytes, res.OOCWriteBytes)
		}
		if res.OOCWindowPeakBytes <= 0 {
			t.Fatal("ooc run reported no window peak")
		}
		if e.OOCPartitions() < 1 {
			t.Fatalf("ooc partitions = %d", e.OOCPartitions())
		}
	}
	return prog, res, rounds
}

func TestOOCMatchesInMemoryBitForBit(t *testing.T) {
	g := graph.GenerateChungLu(400, 2400, 2.5, 9)
	for _, k := range []int{1, 3, 4} {
		ref, refRes, refRounds := oocJob(t, g, k, nil)
		prog, res, rounds := oocJob(t, g, k, &OOCOptions{Dir: t.TempDir(), Partitions: 5})
		if !reflect.DeepEqual(ref.dist, prog.dist) {
			t.Fatalf("k=%d: ooc results diverge from in-memory", k)
		}
		// Only the ooc-only counters may differ.
		res.OOCReadBytes, res.OOCWriteBytes, res.OOCWindowPeakBytes = 0, 0, 0
		if !reflect.DeepEqual(refRes, res) {
			t.Fatalf("k=%d: job results differ:\n in-mem %+v\n ooc    %+v", k, refRes, res)
		}
		if !reflect.DeepEqual(refRounds, rounds) {
			t.Fatalf("k=%d: priced rounds differ", k)
		}
	}
}

func TestOOCDerivedPartitionsRespectBudget(t *testing.T) {
	g := graph.GenerateChungLu(500, 3000, 2.5, 7)
	part := graph.HashPartition(g.NumVertices(), 4)
	prog := newBFS(g.NumVertices(), 0)
	budget := int64(16 << 10)
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{
		Seed:  42,
		Codec: hopCodec{},
		OOC:   &OOCOptions{Dir: t.TempDir(), MemoryBudgetBytes: budget},
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.OOCPartitions() < 2 {
		t.Fatalf("budget %d derived only %d partitions", budget, e.OOCPartitions())
	}
	ref := runBFS(t, g, 4)
	if !reflect.DeepEqual(ref.dist, prog.dist) {
		t.Fatal("budget-partitioned run diverges from in-memory")
	}
}

func TestOOCWithCombinerAndWeights(t *testing.T) {
	g := graph.GenerateStar(120)
	part := graph.HashPartition(120, 3)
	opts := Options[countMsg]{
		Seed:        9,
		Codec:       countCodec{},
		Weight:      func(m countMsg) int64 { return m.N },
		Combiner:    func(a, b countMsg) countMsg { return countMsg{N: a.N + b.N} },
		CombinerKey: oneKey[countMsg],
	}
	mk := func(oo *OOCOptions) sim.JobResult {
		run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(3), System: sim.PregelPlus})
		o := opts
		o.OOC = oo
		e := New[countMsg](g, part, &broadcastProg{}, run, o)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return run.Result()
	}
	ref := mk(nil)
	res := mk(&OOCOptions{Dir: t.TempDir(), Partitions: 4})
	res.OOCReadBytes, res.OOCWriteBytes, res.OOCWindowPeakBytes = 0, 0, 0
	if !reflect.DeepEqual(ref, res) {
		t.Fatalf("combined/weighted ooc run differs:\n in-mem %+v\n ooc    %+v", ref, res)
	}
}

func TestOOCForcesSequentialWorkers(t *testing.T) {
	g := graph.GenerateRing(12)
	part := graph.HashPartition(12, 2)
	e := New[hopMsg](g, part, newBFS(12, 0), nil, Options[hopMsg]{
		Workers: 8,
		Codec:   hopCodec{},
		OOC:     &OOCOptions{Dir: t.TempDir()},
	})
	if e.Workers() != 1 {
		t.Fatalf("ooc run resolved %d workers, want 1", e.Workers())
	}
}

func TestOOCValidation(t *testing.T) {
	g := graph.GenerateRing(8)
	part := graph.HashPartition(8, 2)
	cases := []struct {
		name string
		opts Options[hopMsg]
	}{
		{"missing codec", Options[hopMsg]{OOC: &OOCOptions{}}},
		{"checkpoint conflict", Options[hopMsg]{
			Codec: hopCodec{}, OOC: &OOCOptions{}, Checkpoint: &CheckpointOptions{Dir: "x", Interval: 1},
		}},
	}
	for _, tc := range cases {
		e := New[hopMsg](g, part, newBFS(8, 0), nil, tc.opts)
		if err := e.Run(); err == nil {
			t.Fatalf("%s: expected a configuration error", tc.name)
		}
	}
}

func TestOOCStatsPopulated(t *testing.T) {
	g := graph.GenerateChungLu(200, 1000, 2.5, 3)
	part := graph.HashPartition(200, 2)
	var st ooc.IOStats
	e := New[hopMsg](g, part, newBFS(200, 0), nil, Options[hopMsg]{
		Codec: hopCodec{}, OOC: &OOCOptions{Dir: t.TempDir(), Partitions: 3, Stats: &st},
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st.ReadBytes <= 0 || st.WriteBytes <= 0 {
		t.Fatalf("wall-clock stats not populated: %+v", st)
	}
	if st.BytesPerSec() <= 0 {
		t.Fatal("no measured bandwidth")
	}
}
