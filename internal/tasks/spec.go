package tasks

import (
	"fmt"

	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
)

// Spec names one job the way a vcrun command line or a vcserve submission
// does; Build turns it into a Job for a system profile, which decides the
// task config's Mirror and Async.
type Spec struct {
	// Task is BPPR, MSSP or BKHS.
	Task string
	// Workload is the walks per vertex for BPPR and the source count for
	// MSSP and BKHS.
	Workload int
	// K is the BKHS hop radius (0 = 2).
	K int
	// Sources, when non-nil, replaces FirstSources(n, Workload) as the MSSP
	// or BKHS source set; BPPR ignores it.
	Sources []graph.VertexID
	Seed    uint64
	// Workers, CheckpointDir, CheckpointInterval, Fault and OOC are the
	// execution settings of MSSPConfig.
	Workers            int
	CheckpointDir      string
	CheckpointInterval int
	Fault              *fault.Plan
	OOC                *OOCConfig
}

// Validate is the check vcrun and vcserve apply to a job before they load
// anything: a known task, a workload and a batch count of at least one, and
// a hop radius in 1..MaxBKHSHops.
func Validate(task string, workload, batches, k int) error {
	switch task {
	case "BPPR", "MSSP", "BKHS":
	default:
		return fmt.Errorf("unknown task %q (want BPPR, MSSP or BKHS)", task)
	}
	if workload < 1 {
		return fmt.Errorf("workload must be >= 1, got %d", workload)
	}
	if batches < 1 {
		return fmt.Errorf("batches must be >= 1, got %d", batches)
	}
	if k < 1 || k > MaxBKHSHops {
		return fmt.Errorf("k must be in 1..%d, got %d", MaxBKHSHops, k)
	}
	return nil
}

// Build validates s and constructs its job for the system profile: the
// profile's Mirror selects the broadcast variants and a fully asynchronous
// profile the GAS executor.
func Build(g *graph.Graph, part *graph.Partition, system sim.SystemProfile, s Spec) (Job, error) {
	if s.K == 0 {
		s.K = 2
	}
	if err := Validate(s.Task, s.Workload, 1, s.K); err != nil {
		return nil, err
	}
	async := system.Async == sim.FullAsync
	if s.Task == "BPPR" {
		return NewBPPR(g, part, BPPRConfig{
			WalksPerNode: s.Workload, Mirror: system.Mirror, Async: async, Seed: s.Seed, Workers: s.Workers,
			CheckpointDir: s.CheckpointDir, CheckpointInterval: s.CheckpointInterval, Fault: s.Fault, OOC: s.OOC,
		}), nil
	}
	sources := s.Sources
	if sources == nil {
		sources = FirstSources(g.NumVertices(), s.Workload)
	}
	if s.Task == "BKHS" {
		return NewBKHS(g, part, BKHSConfig{
			Sources: sources, K: s.K, Mirror: system.Mirror, Async: async, Seed: s.Seed, Workers: s.Workers,
			CheckpointDir: s.CheckpointDir, CheckpointInterval: s.CheckpointInterval, Fault: s.Fault, OOC: s.OOC,
		}), nil
	}
	job, err := NewMSSP(g, part, MSSPConfig{
		Sources: sources, Mirror: system.Mirror, Async: async, Seed: s.Seed, Workers: s.Workers,
		CheckpointDir: s.CheckpointDir, CheckpointInterval: s.CheckpointInterval, Fault: s.Fault, OOC: s.OOC,
	})
	if err != nil {
		return nil, err
	}
	return job, nil
}

// CostConfig is the cost configuration of a job on dataset d: statScale
// extrapolates its statistics to paper scale (0 = the dataset's node
// scale), and each machine holds 1/Machines of the paper-scale graph.
func CostConfig(d graph.DatasetSpec, cluster sim.ClusterProfile, system sim.SystemProfile, statScale float64) sim.JobConfig {
	if statScale == 0 {
		statScale = d.ScaleNodes()
	}
	return sim.JobConfig{
		Cluster:              cluster,
		System:               system,
		StatScale:            statScale,
		NodeScale:            d.ScaleNodes(),
		GraphBytesPerMachine: d.PaperBytesPerMachine(cluster.Machines),
	}
}
