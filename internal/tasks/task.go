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
	"encoding/binary"
	"fmt"
	"path/filepath"

	"vcmt/internal/engine"
	"vcmt/internal/fault"
	"vcmt/internal/gas"
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

// Batch is a job's next batch as a vertex program, for any vcapi executor:
// the engine and the gas executor through runBatch, an rpcrt worker through
// its host. There is one program per task; executors differ only in how
// they move its messages.
type Batch[M any] interface {
	vcapi.Program[M]
	vcapi.StateReporter
	vcapi.StateSnapshotter
	// Finish folds the drained batch's results into the job and returns the
	// residual entries per machine that the batch leaves behind.
	Finish() []int64
}

// BatchSeed is the executor seed of a job's batchIdx-th batch.
func BatchSeed(seed uint64, batchIdx int) uint64 {
	return seed ^ uint64(batchIdx+1)*0x9e3779b97f4a7c15
}

// execConfig is the part of a task config that says how batches execute
// rather than what they compute; the three configs spell it with the same
// field names (see MSSPConfig for their documentation).
type execConfig struct {
	Mirror, Async, Combine bool
	Seed                   uint64
	Workers                int
	CheckpointDir          string
	CheckpointInterval     int
	Fault                  *fault.Plan
	OOC                    *OOCConfig
}

// msgKind is what an executor must know about a message type: its codec
// for checkpoints and partition files, its logical multiplicity (nil = 1),
// and the exact keyed fold that a config's Combine switches on (nil for a
// type that has none).
type msgKind[M any] struct {
	codec   engine.Codec[M]
	weight  vcapi.WeightFunc[M]
	combine engine.Combiner[M]
	key     func(M) uint64
}

// runBatch runs prog as the job's batchIdx-th batch: on the asynchronous
// gas executor when the config asks for it, otherwise on the job's engine.
// The first synchronous batch constructs the engine, every later one
// re-arms it with Reset, so a job pays the partition-derived tables, the
// outbox chunks, the inbox and the combine tables once however many batches
// it is cut into.
func runBatch[M any](eng **engine.Engine[M], g *graph.Graph, part *graph.Partition, prog vcapi.Program[M], run *sim.Run, c execConfig, batchIdx int, kind msgKind[M]) error {
	if c.Async {
		return gas.NewAsync(g, part, prog, run, gas.Options[M]{
			Weight: kind.weight, Seed: BatchSeed(c.Seed, batchIdx),
		}).Run()
	}
	opts := batchOptions(c, batchIdx, kind)
	if *eng == nil {
		*eng = engine.New(g, part, prog, run, opts)
	} else {
		(*eng).Reset(prog, run, opts)
	}
	return (*eng).Run()
}

// batchOptions is the engine configuration of a job's batchIdx-th
// synchronous batch.
func batchOptions[M any](c execConfig, batchIdx int, kind msgKind[M]) engine.Options[M] {
	opts := engine.Options[M]{Weight: kind.weight, Seed: BatchSeed(c.Seed, batchIdx), Workers: c.Workers, Fault: c.Fault, Codec: kind.codec}
	// Checkpoints and partition files go to a per-batch subdirectory: engine
	// rounds restart at 1 every batch, so in a shared directory an older
	// batch's high-numbered checkpoint would shadow the current one. (An
	// empty OOC Dir lets each batch's runner own a temporary directory.)
	sub := fmt.Sprintf("batch%03d", batchIdx)
	if c.CheckpointDir != "" {
		opts.Checkpoint = &engine.CheckpointOptions{Dir: filepath.Join(c.CheckpointDir, sub), Interval: c.CheckpointInterval}
	}
	if oc := c.OOC; oc != nil && !c.Mirror { // the engine rejects OOC with mirroring
		opts.OOC = &engine.OOCOptions{MemoryBudgetBytes: oc.MemoryBudgetBytes, Partitions: oc.Partitions, Stats: oc.Stats}
		if oc.Dir != "" {
			opts.OOC.Dir = filepath.Join(oc.Dir, sub)
		}
	}
	if c.Combine {
		opts.Combiner, opts.CombinerKey = kind.combine, kind.key
	}
	return opts
}

// appendPair and readPair are the engine.Codec of every message type here —
// a source vertex and one 32-bit payload, 8 little-endian bytes in
// checkpoints and partition files; the per-type codecs only name the
// payload. (Concrete types, not closures: the out-of-core backend calls
// them per message, and an extra indirect call there measured 5 %.)
func appendPair(buf []byte, src graph.VertexID, payload uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(buf, src), payload)
}

func readPair(data []byte) (src graph.VertexID, payload uint32) {
	if len(data) < 8 {
		return 0, 0 // a short record: the codec's byte count of 8 exposes it
	}
	return binary.LittleEndian.Uint32(data), binary.LittleEndian.Uint32(data[4:8])
}

// FirstSources is Build's default MSSP and BKHS source selection: the first
// count distinct vertices of a multiplicative-hash sweep over n.
func FirstSources(n, count int) []graph.VertexID {
	count = min(count, n)
	seen := make(map[graph.VertexID]bool, count)
	out := make([]graph.VertexID, 0, count)
	for i := 0; len(out) < count; i++ {
		v := graph.VertexID(uint64(i) * 2654435761 % uint64(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// pairKey packs a (source, vertex) pair into a map key.
func pairKey(src, v uint32) uint64 { return uint64(src)<<32 | uint64(v) }

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
	// batches (vcrun's measured_disk figure, the benchmark's ooc.io_s).
	Stats *ooc.IOStats
}
