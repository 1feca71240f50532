package experiments

import (
	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// This file implements the paper's §4.9 discussion items beyond the core
// figures: the scale-up vs scale-out comparison and ablations isolating
// each system design choice (mirroring, combining, out-of-core execution,
// unequal batching).

// ScaleUpResult compares a scale-out cluster against one strong machine
// (§4.9, "Alternative System Settings"): the strong machine has the
// cluster's aggregate cores and memory, local-only traffic and no
// synchronization across machines, but costs more per hour.
type ScaleUpResult struct {
	PaperW          int
	ClusterSeconds  float64
	ClusterOverload bool
	StrongSeconds   float64
	StrongOverload  bool
}

// ScaleUpVsScaleOut runs the same BPPR workload on Galaxy-8 and on a
// single strong machine with 8x the memory and cores.
func ScaleUpVsScaleOut(o Options, paperW int) (ScaleUpResult, error) {
	d, err := graph.Dataset("DBLP")
	if err != nil {
		return ScaleUpResult{}, err
	}
	g := d.Load()
	s := setting{
		dataset: "DBLP", cluster: sim.Galaxy8, machines: 8,
		system: sim.PregelPlus, task: BPPR, paperW: paperW, seed: o.seed(),
	}
	replicaW := s.replicaWorkload(o)

	run := func(cluster sim.ClusterProfile) (sim.JobResult, error) {
		part := graph.HashPartition(g.NumVertices(), cluster.Machines)
		job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: replicaW, Seed: o.seed()})
		cfg := tasks.CostConfig(d, cluster, sim.PregelPlus, d.ScaleNodes()*float64(paperW)/float64(replicaW))
		return batch.Run(job, cfg, batch.Single(replicaW), nil)
	}

	clusterRes, err := run(sim.Galaxy8)
	if err != nil {
		return ScaleUpResult{}, err
	}
	strong := sim.ClusterProfile{
		Name: "Strong-1", Machines: 1,
		MemBytes: 8 * (16 << 30), UsableFrac: 14.0 / 16.0,
		Cores: 64, NetBytesPerSec: 117e6, DiskBytesPerSec: 450e6,
	}
	strongRes, err := run(strong)
	if err != nil {
		return ScaleUpResult{}, err
	}
	return ScaleUpResult{
		PaperW:          paperW,
		ClusterSeconds:  clusterRes.Seconds,
		ClusterOverload: clusterRes.Overload,
		StrongSeconds:   strongRes.Seconds,
		StrongOverload:  strongRes.Overload,
	}, nil
}

// AblationResult pairs a variant against its baseline.
type AblationResult struct {
	Name             string
	BaselineSeconds  float64
	VariantSeconds   float64
	BaselineWireGB   float64
	VariantWireGB    float64
	BaselineOverload bool
	VariantOverload  bool
}

// AblationMirroring isolates Pregel+'s mirroring mechanism: the same
// broadcast-interface BPPR run with and without mirrors, measuring the
// wire-byte reduction from per-mirror-machine transmission.
func AblationMirroring(o Options) (AblationResult, error) {
	d, err := graph.Dataset("DBLP")
	if err != nil {
		return AblationResult{}, err
	}
	g := d.Load()
	part := graph.HashPartition(g.NumVertices(), 8)
	w := 160
	if o.Fast {
		w = 40
	}
	// Force the broadcast implementation on the non-mirrored system too, so
	// the only difference is wire-level mirroring.
	runOne := func(sys sim.SystemProfile) (sim.JobResult, error) {
		job := tasks.NewBPPR(g, part, tasks.BPPRConfig{
			WalksPerNode: w, Mirror: true, Seed: o.seed(),
		})
		return batch.Run(job, tasks.CostConfig(d, sim.Galaxy8, sys, 0), batch.Equal(w, 2), nil)
	}
	b, err := runOne(sim.PregelPlus)
	if err != nil {
		return AblationResult{}, err
	}
	v, err := runOne(sim.PregelPlusMirror)
	if err != nil {
		return AblationResult{}, err
	}
	return ablation("mirroring", b, v), nil
}

// ablation pairs a baseline run against its variant.
func ablation(name string, b, v sim.JobResult) AblationResult {
	return AblationResult{
		Name:            name,
		BaselineSeconds: b.Seconds, VariantSeconds: v.Seconds,
		BaselineWireGB: b.WireBytesTotal / (1 << 30), VariantWireGB: v.WireBytesTotal / (1 << 30),
		BaselineOverload: b.Overload, VariantOverload: v.Overload,
	}
}

// AblationCombining isolates message combining (GraphLab sync vs a
// non-combining profile with otherwise identical constants).
func AblationCombining(o Options) (AblationResult, error) {
	noCombine := sim.GraphLab
	noCombine.Name = "GraphLab(no-combine)"
	noCombine.Combines = false
	noCombine.WireCombines = false
	return systemPairAblation(o, "combining", noCombine, sim.GraphLab, 5120)
}

// AblationOutOfCore isolates GraphD's out-of-core execution against an
// in-memory profile with identical constants: spilling bounds memory at
// the price of disk time.
func AblationOutOfCore(o Options) (AblationResult, error) {
	inMem := sim.GraphD
	inMem.Name = "GraphD(in-memory)"
	inMem.OutOfCore = false
	return systemPairAblation(o, "out-of-core", inMem, sim.GraphD, 12288)
}

func systemPairAblation(o Options, name string, baseline, variant sim.SystemProfile, paperW int) (AblationResult, error) {
	mk := func(sys sim.SystemProfile) (sim.JobResult, error) {
		s := setting{
			dataset: "DBLP", cluster: sim.Galaxy8, machines: 8,
			system: sys, task: BPPR, paperW: paperW, seed: o.seed(),
			batches: []int{1},
		}
		ser, err := s.run(o, sys.Name)
		if err != nil {
			return sim.JobResult{}, err
		}
		return ser.Rows[0].Result, nil
	}
	b, err := mk(baseline)
	if err != nil {
		return AblationResult{}, err
	}
	v, err := mk(variant)
	if err != nil {
		return AblationResult{}, err
	}
	return ablation(name, b, v), nil
}

// AblationUnequalBatching compares the best unequal two-batch split against
// the equal split for a fixed workload (§4.7's design insight).
func AblationUnequalBatching(o Options) (AblationResult, error) {
	d, err := graph.Dataset("DBLP")
	if err != nil {
		return AblationResult{}, err
	}
	g := d.Load()
	part := graph.HashPartition(g.NumVertices(), 8)
	s := setting{
		dataset: "DBLP", cluster: sim.Galaxy8, machines: 8,
		system: sim.PregelPlus, task: BPPR, paperW: 12800, seed: o.seed(),
	}
	total := s.replicaWorkload(o)
	cfg := s.jobConfig(d, total)
	runSched := func(sched batch.Schedule) (sim.JobResult, error) {
		job, err := s.makeJob(g, part, total, o.seed(), o)
		if err != nil {
			return sim.JobResult{}, err
		}
		return batch.Run(job, cfg, sched, nil)
	}
	equal, err := runSched(batch.Equal(total, 2))
	if err != nil {
		return AblationResult{}, err
	}
	// The paper's finding: put more work in the first batch (Δ ≈ W/5).
	unequal, err := runSched(batch.TwoUnequal(total, total/5))
	if err != nil {
		return AblationResult{}, err
	}
	return ablation("unequal-batching", equal, unequal), nil
}

// FinerBatches sweeps every batch count 1..16 (not just the doubling
// numbers the figures plot) for the Fig. 4 heavy workload, locating the
// exact optimum the paper's additional materials report at finer
// granularity.
func FinerBatches(o Options) (Series, error) {
	s := setting{
		dataset: "DBLP", cluster: sim.Galaxy8, machines: 8,
		system: sim.PregelPlus, task: BPPR, paperW: 12288,
		batches: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		seed:    o.seed(),
	}
	return s.run(o, "Pregel+")
}
