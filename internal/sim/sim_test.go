package sim

import (
	"math"
	"testing"
)

func singleRound(perMachine []MachineRound) RoundStats {
	return RoundStats{PerMachine: perMachine}
}

func basicConfig(cl ClusterProfile, sys SystemProfile) JobConfig {
	return JobConfig{
		Cluster:   cl,
		System:    sys,
		Task:      TaskMemModel{StateBytesPerEntry: 8, ResidualBytesPerEntry: 8},
		StatScale: 1, NodeScale: 1,
	}
}

func TestProfilesRegistry(t *testing.T) {
	if len(Systems()) != 7 {
		t.Fatalf("want 7 systems, got %d", len(Systems()))
	}
	for _, s := range Systems() {
		got, err := SystemByName(s.Name)
		if err != nil || got.Name != s.Name {
			t.Fatalf("SystemByName(%q) failed: %v", s.Name, err)
		}
	}
	if _, err := SystemByName("bogus"); err == nil {
		t.Fatal("want error for unknown system")
	}
	if len(Clusters()) != 3 {
		t.Fatalf("want 3 clusters, got %d", len(Clusters()))
	}
	for _, c := range Clusters() {
		if _, err := ClusterByName(c.Name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ClusterByName("bogus"); err == nil {
		t.Fatal("want error for unknown cluster")
	}
}

func TestClusterWithMachines(t *testing.T) {
	c := Galaxy8.WithMachines(4)
	if c.Machines != 4 {
		t.Fatalf("machines=%d", c.Machines)
	}
	if Galaxy8.Machines != 8 {
		t.Fatal("WithMachines must not mutate the original")
	}
}

func TestWithMachinesPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Galaxy8.WithMachines(0)
}

func TestUsableMem(t *testing.T) {
	got := Galaxy8.UsableMemBytes()
	want := 14.0 * (1 << 30)
	if math.Abs(got-want) > 1e6 {
		t.Fatalf("usable mem %g want %g", got, want)
	}
}

func TestAsyncModeString(t *testing.T) {
	if Sync.String() != "sync" || PartialAsync.String() != "partial-async" || FullAsync.String() != "async" {
		t.Fatal("bad mode strings")
	}
}

func TestRunAccumulatesRounds(t *testing.T) {
	r := NewRun(basicConfig(Galaxy8, PregelPlus))
	for i := 0; i < 3; i++ {
		r.ObserveRound(singleRound(make([]MachineRound, 8)))
	}
	res := r.Result()
	if res.Rounds != 3 {
		t.Fatalf("rounds=%d", res.Rounds)
	}
	if res.Seconds <= 0 {
		t.Fatal("barrier time must make empty rounds non-free")
	}
}

func TestMoreMessagesCostMore(t *testing.T) {
	light := NewRun(basicConfig(Galaxy8, PregelPlus))
	heavy := NewRun(basicConfig(Galaxy8, PregelPlus))
	mk := func(msgs int64) RoundStats {
		per := make([]MachineRound, 8)
		for i := range per {
			per[i] = MachineRound{
				SentLogical: msgs, SentPhysical: msgs,
				RecvLogical: msgs, RecvPhysical: msgs,
				RemoteLogical: msgs * 7 / 8, RemotePhysical: msgs * 7 / 8,
			}
		}
		return RoundStats{PerMachine: per}
	}
	light.ObserveRound(mk(1000))
	heavy.ObserveRound(mk(1000000))
	if heavy.Seconds() <= light.Seconds() {
		t.Fatal("more messages must cost more time")
	}
	// The network is charged the profile's per-message estimate.
	wantWire := float64(8*875) * float64(PregelPlus.WireBytesPerMsg)
	if got := light.Result().WireBytesTotal; got != wantWire {
		t.Fatalf("wire bytes %g want %g", got, wantWire)
	}
}

func TestStatScaleExtrapolates(t *testing.T) {
	small := NewRun(basicConfig(Galaxy8, PregelPlus))
	big := basicConfig(Galaxy8, PregelPlus)
	big.StatScale = 100
	scaled := NewRun(big)
	per := make([]MachineRound, 8)
	for i := range per {
		per[i] = MachineRound{SentLogical: 10000, RecvLogical: 10000, RemoteLogical: 9000}
	}
	rs := RoundStats{PerMachine: per}
	small.ObserveRound(rs)
	scaled.ObserveRound(rs)
	if scaled.Seconds() <= small.Seconds() {
		t.Fatal("extrapolated stats must cost more")
	}
	rSmall := small.Result()
	rBig := scaled.Result()
	if math.Abs(rBig.TotalLogicalMsgs-100*rSmall.TotalLogicalMsgs) > 1 {
		t.Fatalf("logical message extrapolation wrong: %g vs %g", rBig.TotalLogicalMsgs, rSmall.TotalLogicalMsgs)
	}
}

func TestMemoryThrashing(t *testing.T) {
	cfg := basicConfig(Galaxy8, PregelPlus)
	// One machine buffers enough messages to exceed 14 GB usable:
	// msgs * 16 B > 14 GB -> msgs > ~940M.
	r := NewRun(cfg)
	per := make([]MachineRound, 8)
	per[0] = MachineRound{SentLogical: 600_000_000, RecvLogical: 600_000_000, RemoteLogical: 450_000_000}
	rr := r.ObserveRound(RoundStats{PerMachine: per})
	if rr.MemRatio <= 1 {
		t.Fatalf("expected memory-bound state, ratio=%v", rr.MemRatio)
	}
	if rr.ThrashFactor <= 1 {
		t.Fatal("expected thrashing penalty")
	}
	// Same volume split into 4 rounds of a quarter each is cheaper.
	r2 := NewRun(cfg)
	for i := 0; i < 4; i++ {
		per := make([]MachineRound, 8)
		per[0] = MachineRound{SentLogical: 150_000_000, RecvLogical: 150_000_000, RemoteLogical: 112_000_000}
		r2.ObserveRound(RoundStats{PerMachine: per})
	}
	if r2.Seconds() >= r.Seconds() {
		t.Fatalf("batched volume should beat thrashing: %v vs %v", r2.Seconds(), r.Seconds())
	}
}

func TestOverflowDetection(t *testing.T) {
	r := NewRun(basicConfig(Galaxy8, PregelPlus))
	per := make([]MachineRound, 8)
	per[0] = MachineRound{SentLogical: 2_000_000_000, RecvLogical: 2_000_000_000, RemoteLogical: 1_500_000_000}
	rr := r.ObserveRound(RoundStats{PerMachine: per})
	if !rr.Overflow {
		t.Fatalf("expected overflow at ratio %v", rr.MemRatio)
	}
	if !r.Result().Overflow || !r.Result().Overload {
		t.Fatal("overflow must surface in the job result")
	}
}

func TestOutOfCoreAvoidsThrashing(t *testing.T) {
	inMem := NewRun(basicConfig(Galaxy8, PregelPlus))
	ooc := NewRun(basicConfig(Galaxy8, GraphD))
	per := make([]MachineRound, 8)
	for i := range per {
		per[i] = MachineRound{SentLogical: 500_000_000, RecvLogical: 500_000_000, RemoteLogical: 100_000_000}
	}
	rrIn := inMem.ObserveRound(RoundStats{PerMachine: per})
	rrOOC := ooc.ObserveRound(RoundStats{PerMachine: per})
	if rrIn.MemRatio <= 1 {
		t.Fatal("test needs a memory-bound in-memory round")
	}
	if rrOOC.MemRatio > 1 {
		t.Fatalf("out-of-core must bound memory, ratio=%v", rrOOC.MemRatio)
	}
	if rrOOC.DiskSeconds <= 0 || rrOOC.DiskUtil <= 0 {
		t.Fatal("out-of-core round must spill")
	}
}

func TestDiskSaturationMetrics(t *testing.T) {
	r := NewRun(basicConfig(Galaxy27, GraphD))
	per := make([]MachineRound, 27)
	for i := range per {
		per[i] = MachineRound{SentLogical: 2_000_000_000, RecvLogical: 2_000_000_000, RemoteLogical: 200_000_000}
	}
	rr := r.ObserveRound(RoundStats{PerMachine: per})
	if rr.DiskUtil <= 1 {
		t.Fatalf("expected saturated disk, util=%v", rr.DiskUtil)
	}
	if rr.IOOveruseSec <= 0 {
		t.Fatal("expected IO overuse when saturated")
	}
	if rr.IOQueueLen <= 0 {
		t.Fatal("expected a nonzero IO queue when saturated")
	}
	res := r.Result()
	if res.MaxDiskUtil <= 1 || res.IOOveruseSec <= 0 {
		t.Fatal("job result must surface disk saturation")
	}
}

func TestResidualMemoryCharged(t *testing.T) {
	cfg := basicConfig(Galaxy8, PregelPlus)
	cfg.Task.ResidualBytesPerEntry = 8
	without := NewRun(cfg)
	with := NewRun(cfg)
	resid := make([]int64, 8)
	for i := range resid {
		resid[i] = 100_000_000 // 800 MB per machine
	}
	with.AddResidual(resid)
	per := make([]MachineRound, 8)
	for i := range per {
		per[i] = MachineRound{SentLogical: 1000, RecvLogical: 1000}
	}
	rrW := with.ObserveRound(RoundStats{PerMachine: per})
	rrWo := without.ObserveRound(RoundStats{PerMachine: per})
	if rrW.PeakMemBytes <= rrWo.PeakMemBytes {
		t.Fatal("residual entries must add to peak memory")
	}
	if with.ResidualEntries() != 8*100_000_000 {
		t.Fatalf("residual entries=%d", with.ResidualEntries())
	}
}

func TestBarrierCostGrowsWithMachines(t *testing.T) {
	small := NewRun(basicConfig(Galaxy8.WithMachines(2), PregelPlus))
	big := NewRun(basicConfig(Galaxy8.WithMachines(16), PregelPlus))
	small.ObserveRound(singleRound(make([]MachineRound, 2)))
	big.ObserveRound(singleRound(make([]MachineRound, 16)))
	if big.Seconds() <= small.Seconds() {
		t.Fatal("barrier must cost more with more machines")
	}
}

func TestAsyncSkipsBarrier(t *testing.T) {
	syncRun := NewRun(basicConfig(Galaxy8, GraphLab))
	asyncRun := NewRun(basicConfig(Galaxy8, GraphLabAsync))
	syncRun.ObserveRound(singleRound(make([]MachineRound, 8)))
	asyncRun.ObserveRound(singleRound(make([]MachineRound, 8)))
	if asyncRun.Seconds() >= syncRun.Seconds() {
		t.Fatal("async empty round must be cheaper than sync barrier")
	}
}

func TestAsyncLockingCostGrowsWithMachines(t *testing.T) {
	mk := func(k int) float64 {
		r := NewRun(basicConfig(Galaxy8.WithMachines(k), GraphLabAsync))
		per := make([]MachineRound, k)
		for i := range per {
			per[i] = MachineRound{RecvLogical: 1_000_000, Activations: 1_000_000}
		}
		r.ObserveRound(RoundStats{PerMachine: per})
		return r.Seconds()
	}
	if mk(16) <= mk(1) {
		t.Fatal("per-activation locking must cost more on more machines")
	}
}

func TestCombiningSystemUsesPhysicalCounts(t *testing.T) {
	// Same round, logical >> physical: the combining system must be cheaper.
	per := make([]MachineRound, 8)
	for i := range per {
		per[i] = MachineRound{
			SentLogical: 10_000_000, SentPhysical: 100_000,
			RecvLogical: 10_000_000, RecvPhysical: 100_000,
			RemoteLogical: 9_000_000, RemotePhysical: 90_000,
		}
	}
	rs := RoundStats{PerMachine: per}
	plain := NewRun(basicConfig(Galaxy8, PregelPlus))
	comb := NewRun(basicConfig(Galaxy8, GraphLab))
	plain.ObserveRound(rs)
	comb.ObserveRound(rs)
	if comb.Seconds() >= plain.Seconds() {
		t.Fatal("combining must reduce cost when logical >> physical")
	}
}

func TestOverloadCutoff(t *testing.T) {
	r := NewRun(basicConfig(Galaxy8, PregelPlus))
	per := make([]MachineRound, 8)
	for i := range per {
		per[i] = MachineRound{SentLogical: 50_000_000, RecvLogical: 50_000_000, RemoteLogical: 45_000_000}
	}
	for i := 0; i < 1000 && !r.Overloaded(); i++ {
		r.ObserveRound(RoundStats{PerMachine: per})
	}
	if !r.Overloaded() {
		t.Fatal("run should overload past the cutoff")
	}
	if res := r.Result(); !res.Overload || res.Overflow {
		t.Fatalf("result must report overload past the %v s cutoff without overflow: %+v", DefaultCutoffSeconds, res)
	}
}

func TestMonetaryCostOnCloudOnly(t *testing.T) {
	local := NewRun(basicConfig(Galaxy8, PregelPlus))
	cloud := NewRun(basicConfig(Docker32, PregelPlus))
	per := make([]MachineRound, 8)
	local.ObserveRound(RoundStats{PerMachine: per})
	per32 := make([]MachineRound, 32)
	cloud.ObserveRound(RoundStats{PerMachine: per32})
	if local.Result().Credits != 0 {
		t.Fatal("local cluster must not bill")
	}
	if cloud.Result().Credits <= 0 {
		t.Fatal("cloud cluster must bill")
	}
}

func TestMonetaryCostLowerBoundOnOverload(t *testing.T) {
	r := NewRun(basicConfig(Docker32, PregelPlus))
	per := make([]MachineRound, 32)
	for i := range per {
		per[i] = MachineRound{SentLogical: 10_000_000, RecvLogical: 10_000_000, RemoteLogical: 9_000_000}
	}
	for i := 0; i < 10000 && !r.Overloaded(); i++ {
		r.ObserveRound(RoundStats{PerMachine: per})
	}
	res := r.Result()
	if !res.Overload || !res.CreditsLowerBound {
		t.Fatal("overloaded cloud run must mark credits as lower bound")
	}
}

func TestAddSeconds(t *testing.T) {
	r := NewRun(basicConfig(Galaxy8, PregelPlus))
	r.AddSeconds(12.5)
	if r.Seconds() != 12.5 {
		t.Fatalf("seconds=%v", r.Seconds())
	}
}

func TestNetOveruseDropsWithComputeOverlap(t *testing.T) {
	// Heavy network with negligible compute: overuse ≈ net time.
	cfg := basicConfig(Galaxy8, PregelPlus)
	r := NewRun(cfg)
	per := make([]MachineRound, 8)
	per[0] = MachineRound{SentLogical: 1_000_000, RemoteLogical: 1_000_000}
	rr := r.ObserveRound(RoundStats{PerMachine: per})
	if rr.NetOveruseSec <= 0 {
		t.Fatal("pure network round must register overuse")
	}
	// Same network but giant compute: no overuse.
	r2 := NewRun(cfg)
	per2 := make([]MachineRound, 8)
	per2[0] = MachineRound{SentLogical: 1_000_000, RemoteLogical: 1_000_000, RecvLogical: 500_000_000}
	rr2 := r2.ObserveRound(RoundStats{PerMachine: per2})
	if rr2.NetOveruseSec > 0 {
		t.Fatal("compute-dominated round must not register net overuse")
	}
}

func TestBatchesCounted(t *testing.T) {
	r := NewRun(basicConfig(Galaxy8, PregelPlus))
	r.BeginBatch()
	r.BeginBatch()
	if got := r.Result().Batches; got != 2 {
		t.Fatalf("batches=%d", got)
	}
}

func TestRoundStatsTotals(t *testing.T) {
	rs := RoundStats{PerMachine: []MachineRound{
		{SentLogical: 5, SentPhysical: 3, ActiveVertices: 2},
		{SentLogical: 7, SentPhysical: 4, ActiveVertices: 1},
	}}
	if rs.TotalSentLogical() != 12 {
		t.Fatalf("logical=%d", rs.TotalSentLogical())
	}
	if rs.TotalSentPhysical() != 7 {
		t.Fatalf("physical=%d", rs.TotalSentPhysical())
	}
	if rs.TotalActive() != 3 {
		t.Fatalf("active=%d", rs.TotalActive())
	}
}

func TestPhaseDecompositionPopulated(t *testing.T) {
	r := NewRun(basicConfig(Galaxy8, GraphD))
	per := make([]MachineRound, 8)
	for i := range per {
		per[i] = MachineRound{SentLogical: 1e6, RecvLogical: 1e6, RemoteLogical: 9e5, ActiveVertices: 100}
	}
	rr := r.ObserveRound(RoundStats{PerMachine: per})
	if rr.ComputeSeconds <= 0 || rr.NetSeconds <= 0 || rr.DiskSeconds <= 0 || rr.BarrierSeconds <= 0 {
		t.Fatalf("phases not populated: %+v", rr)
	}
	if len(rr.PerMachine) != 8 {
		t.Fatalf("per-machine costs %d want 8", len(rr.PerMachine))
	}
	// The round's priced time equals worst-machine base + barrier (no
	// thrash at this load): the decomposition must be consistent with it.
	base := rr.PerMachine[0].ComputeSeconds + rr.PerMachine[0].NetSeconds + rr.PerMachine[0].DiskSeconds
	want := (base + rr.BarrierSeconds) * rr.ThrashFactor
	if math.Abs(want-rr.Seconds)/rr.Seconds > 1e-9 {
		t.Fatalf("decomposition inconsistent: parts=%v seconds=%v", want, rr.Seconds)
	}
	res := r.Result()
	if res.ComputeSeconds != rr.ComputeSeconds || res.BarrierSeconds != rr.BarrierSeconds {
		t.Fatalf("job totals %v/%v, round %v/%v",
			res.ComputeSeconds, res.BarrierSeconds, rr.ComputeSeconds, rr.BarrierSeconds)
	}
}

func TestSkewRatioFlagsStraggler(t *testing.T) {
	balanced := NewRun(basicConfig(Galaxy8, PregelPlus))
	skewed := NewRun(basicConfig(Galaxy8, PregelPlus))
	per := make([]MachineRound, 8)
	for i := range per {
		per[i] = MachineRound{SentLogical: 1000, RecvLogical: 1000, RemoteLogical: 900}
	}
	rb := balanced.ObserveRound(RoundStats{PerMachine: per})
	if math.Abs(rb.SkewRatio-1) > 1e-9 {
		t.Fatalf("balanced skew=%v want 1", rb.SkewRatio)
	}
	per[3].RecvLogical = 50000
	rs := skewed.ObserveRound(RoundStats{PerMachine: per})
	if rs.SkewRatio < 2 {
		t.Fatalf("straggler skew=%v want >= 2", rs.SkewRatio)
	}
	if skewed.Result().MaxSkewRatio != rs.SkewRatio {
		t.Fatal("job-level max skew not tracked")
	}
}

type recordingObserver struct {
	batches []int
	rounds  []RoundObservation
}

func (o *recordingObserver) OnBatchStart(batch int, simSeconds float64) {
	o.batches = append(o.batches, batch)
}
func (o *recordingObserver) OnRound(ob RoundObservation) { o.rounds = append(o.rounds, ob) }

func TestObserverReceivesCallbacks(t *testing.T) {
	obs := &recordingObserver{}
	cfg := basicConfig(Galaxy8, PregelPlus)
	cfg.Observer = obs
	r := NewRun(cfg)
	per := make([]MachineRound, 8)
	for i := range per {
		per[i] = MachineRound{SentLogical: 1000, RecvLogical: 1000, RemoteLogical: 900}
	}
	r.BeginBatch()
	r.ObserveRound(RoundStats{PerMachine: per})
	r.BeginBatch()
	r.ObserveRound(RoundStats{PerMachine: per, OOCReadBytes: 7, OOCWriteBytes: 2})
	if len(obs.batches) != 2 || len(obs.rounds) != 2 {
		t.Fatalf("observer saw %d batches, %d rounds", len(obs.batches), len(obs.rounds))
	}
	if obs.rounds[1].Round != 2 || obs.rounds[1].Batch != 2 {
		t.Fatalf("round attribution: %+v", obs.rounds[1])
	}
	if obs.rounds[1].Stats.OOCReadBytes != 7 {
		t.Fatal("ooc counters not forwarded to observer")
	}
	if obs.rounds[1].CumSeconds <= obs.rounds[0].CumSeconds {
		t.Fatal("cumulative time must grow")
	}
	if r.Result().OOCReadBytes != 7 || r.Result().OOCWriteBytes != 2 {
		t.Fatal("ooc totals missing from JobResult")
	}
}
