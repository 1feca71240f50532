// Package tasks implements the paper's benchmark multi-processing tasks
// (§2.3, §3) as vertex-centric programs: Batch Personalized PageRank
// (BPPR, Monte-Carlo counted random walks and the fractional-push variant
// for the mirror/broadcast interface), Multi-Source Shortest Paths (MSSP),
// Batch k-Hop Search (BKHS), and global PageRank (used by Table 4).
//
// Each task exposes a Job: a multi-processing workload that the batch
// runner (internal/batch) executes batch-by-batch, carrying residual
// memory (the retained intermediate results of finished batches, §4.5)
// across batches.
package tasks

import (
	"fmt"
	"path/filepath"

	"vcmt/internal/engine"
	"vcmt/internal/graph"
	"vcmt/internal/ooc"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// Job is a multi-processing task that can be executed in batches. The
// workload unit is task-specific: random walks per node for BPPR, source
// count for MSSP and BKHS (§4, "Workloads and Evaluation Metrics").
type Job interface {
	// Name identifies the task ("BPPR", "MSSP", "BKHS").
	Name() string
	// TotalWorkload is the job's full workload W.
	TotalWorkload() int
	// RunBatch executes `workload` units as one batch, reporting per-round
	// statistics to run. It returns the residual entries per machine that
	// this batch leaves behind for final aggregation.
	RunBatch(run *sim.Run, workload int, batchIdx int) ([]int64, error)
	// MemModel returns the task's memory constants for the cost model.
	MemModel() sim.TaskMemModel
}

// runBatch runs prog for one batch on the job's engine: the first batch
// constructs it, every later one re-arms it with Reset, so a job pays the
// partition-derived tables, the outbox chunks, the inbox and the combine
// tables once however many batches it is cut into.
func runBatch[M any](eng **engine.Engine[M], g *graph.Graph, part *graph.Partition, prog vcapi.Program[M], run *sim.Run, opts engine.Options[M]) error {
	if *eng == nil {
		*eng = engine.New(g, part, prog, run, opts)
	} else {
		(*eng).Reset(prog, run, opts)
	}
	return (*eng).Run()
}

// newSourceIndex returns a job-lifetime dense map from vertex to the
// vertex's index among the current batch's sources, -1 for every other
// vertex. A batch marks its own sources before it runs and unmarks them
// after, so the cost per batch is O(batch), not O(n).
func newSourceIndex(n int) []int32 {
	idx := make([]int32, n)
	for v := range idx {
		idx[v] = -1
	}
	return idx
}

// pairKey packs a (source, vertex) pair into a map key.
func pairKey(src, v uint32) uint64 { return uint64(src)<<32 | uint64(v) }

// checkpointOptions builds the engine checkpoint configuration shared by
// all tasks: nil when dir is empty, otherwise a per-batch subdirectory
// (engine rounds restart at 1 every batch, so sharing one directory would
// let an older batch's high-numbered checkpoint shadow the current one).
func checkpointOptions[M any](codec engine.Codec[M], dir string, interval, batchIdx int) *engine.CheckpointOptions[M] {
	if dir == "" {
		return nil
	}
	return &engine.CheckpointOptions[M]{
		Codec:    codec,
		Dir:      filepath.Join(dir, fmt.Sprintf("batch%03d", batchIdx)),
		Interval: interval,
	}
}

// OOCConfig enables the partitioned out-of-core execution backend
// (engine.OOCOptions) on a task's synchronous batches: messages are routed
// through per-partition files and each superstep streams one partition at a
// time through a bounded memory window. Results are bit-identical to
// in-memory execution. Ignored by the asynchronous GAS executor, which has
// no barrier to seal partition files at, and by mirror (broadcast)
// configurations, whose mirror spans assume a resident graph.
type OOCConfig struct {
	// Dir is the partition-file directory (each batch uses its own
	// subdirectory); empty means a private temporary directory per batch.
	Dir string
	// MemoryBudgetBytes bounds the resident window; used to derive the
	// partition count when Partitions is 0.
	MemoryBudgetBytes int64
	// Partitions fixes the partition count; 0 derives it from the budget.
	Partitions int
	// Stats, when non-nil, accumulates measured wall-clock IO across all
	// batches for disk-bandwidth calibration (core.DiskTuneCalibrated).
	Stats *ooc.IOStats
}

// oocOptions builds the engine out-of-core configuration shared by all
// tasks: nil when cfg is nil or the batch runs a mirror (broadcast) system
// — the engine rejects OOC+mirroring — otherwise a per-batch subdirectory
// (mirroring checkpointOptions; an empty Dir lets each batch's runner own a
// temporary directory).
func oocOptions[M any](codec engine.Codec[M], cfg *OOCConfig, batchIdx int, mirror bool) *engine.OOCOptions[M] {
	if cfg == nil || mirror {
		return nil
	}
	dir := cfg.Dir
	if dir != "" {
		dir = filepath.Join(dir, fmt.Sprintf("batch%03d", batchIdx))
	}
	return &engine.OOCOptions[M]{
		Codec:             codec,
		Dir:               dir,
		MemoryBudgetBytes: cfg.MemoryBudgetBytes,
		Partitions:        cfg.Partitions,
		Stats:             cfg.Stats,
	}
}
