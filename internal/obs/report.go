package obs

import (
	"encoding/json"
	"io"

	"vcmt/internal/sim"
)

// ReportSchema identifies the run-report JSON layout; bump on breaking
// changes.
const ReportSchema = "vcmt/run-report/v1"

// RunMeta describes the job a report covers — the flags that reproduce it.
type RunMeta struct {
	Task      string  `json:"task"`
	Dataset   string  `json:"dataset,omitempty"`
	System    string  `json:"system"`
	Cluster   string  `json:"cluster"`
	Machines  int     `json:"machines"`
	Workload  int     `json:"workload"`
	Batches   int     `json:"batches"`
	Seed      uint64  `json:"seed"`
	StatScale float64 `json:"stat_scale,omitempty"`
}

// ResultSummary is the job-level verdict (mirrors sim.JobResult).
type ResultSummary struct {
	Seconds           float64 `json:"seconds"`
	Rounds            int     `json:"rounds"`
	Batches           int     `json:"batches"`
	Overload          bool    `json:"overload"`
	Overflow          bool    `json:"overflow"`
	TotalLogicalMsgs  float64 `json:"total_logical_msgs"`
	MaxMsgsPerRound   float64 `json:"max_msgs_per_round"`
	PeakMemBytes      float64 `json:"peak_mem_bytes"`
	MaxMemRatio       float64 `json:"max_mem_ratio"`
	NetOveruseSeconds float64 `json:"net_overuse_seconds"`
	MaxDiskUtil       float64 `json:"max_disk_util"`
	IOOveruseSeconds  float64 `json:"io_overuse_seconds"`
	WireBytesTotal    float64 `json:"wire_bytes_total"`
	MaxSkewRatio      float64 `json:"max_skew_ratio"`
	// SpilledBytes and SpilledRecords have no producer and always print 0;
	// the keys stay because report bytes are a contract.
	SpilledBytes      int64   `json:"spilled_bytes"`
	SpilledRecords    int64   `json:"spilled_records"`
	Credits           float64 `json:"credits,omitempty"`
	CreditsLowerBound bool    `json:"credits_lower_bound,omitempty"`

	// Fault-tolerance fields; omitted for runs without checkpointing so
	// pre-existing reports stay byte-identical.
	CheckpointsWritten int     `json:"checkpoints_written,omitempty"`
	CheckpointBytes    int64   `json:"checkpoint_bytes,omitempty"`
	CheckpointSeconds  float64 `json:"checkpoint_seconds,omitempty"`
	Recoveries         int     `json:"recoveries,omitempty"`
	RoundsLost         int     `json:"rounds_lost,omitempty"`
	RecoverySeconds    float64 `json:"recovery_seconds,omitempty"`

	// Out-of-core partitioned-execution counters (measured encoded bytes);
	// omitted for in-memory runs so their reports stay byte-identical.
	OOCReadBytes       int64 `json:"ooc_read_bytes,omitempty"`
	OOCWriteBytes      int64 `json:"ooc_write_bytes,omitempty"`
	OOCWindowPeakBytes int64 `json:"ooc_window_peak_bytes,omitempty"`
}

// BatchReport is one batch's share of the run.
type BatchReport struct {
	Batch         int            `json:"batch"`
	StartSeconds  float64        `json:"start_seconds"` // simulated time when the batch began
	Rounds        int            `json:"rounds"`
	Seconds       float64        `json:"seconds"`
	LogicalMsgs   float64        `json:"logical_msgs"`
	Phases        PhaseBreakdown `json:"phases"`
	OOCReadBytes  int64          `json:"ooc_read_bytes,omitempty"`
	OOCWriteBytes int64          `json:"ooc_write_bytes,omitempty"`
}

// MachineReport aggregates one simulated machine over the whole run — the
// per-worker view that exposes stragglers.
type MachineReport struct {
	Machine        int            `json:"machine"`
	SentLogical    int64          `json:"sent_logical"`
	RecvLogical    int64          `json:"recv_logical"`
	RemoteLogical  int64          `json:"remote_logical"`
	ActiveVertices int64          `json:"active_vertices"`
	MaxStateEntry  int64          `json:"max_state_entries"`
	Phases         PhaseBreakdown `json:"phases"`
	MaxMemBytes    float64        `json:"max_mem_bytes"`
}

// SuperstepReport is one superstep's row in the report time series.
type SuperstepReport struct {
	Round        int            `json:"round"`
	Batch        int            `json:"batch"`
	Seconds      float64        `json:"seconds"`
	Phases       PhaseBreakdown `json:"phases"`
	LogicalMsgs  float64        `json:"logical_msgs"`
	MemRatio     float64        `json:"mem_ratio"`
	ThrashFactor float64        `json:"thrash_factor"`
	DiskUtil     float64        `json:"disk_util,omitempty"`
	SkewRatio    float64        `json:"skew_ratio"`
	// Out-of-core partition-file IO for this round (trailing omitempty so
	// in-memory rows are unchanged).
	OOCReadBytes       int64 `json:"ooc_read_bytes,omitempty"`
	OOCWriteBytes      int64 `json:"ooc_write_bytes,omitempty"`
	OOCWindowPeakBytes int64 `json:"ooc_window_peak_bytes,omitempty"`
}

// SkewSummary condenses the run's machine imbalance.
type SkewSummary struct {
	// MaxRatio is the worst per-round (max machine time / mean machine
	// time); MeanRatio averages the ratio over rounds with traffic.
	MaxRatio  float64 `json:"max_ratio"`
	MeanRatio float64 `json:"mean_ratio"`
}

// RunReport is the machine-readable run report. Field order is fixed by the
// struct layout and every value derives from the cost model or measured
// counters, so serialization is byte-stable for deterministic runs.
type RunReport struct {
	Schema     string            `json:"schema"`
	Job        RunMeta           `json:"job"`
	Result     ResultSummary     `json:"result"`
	Phases     PhaseBreakdown    `json:"phases"`
	Skew       SkewSummary       `json:"skew"`
	Batches    []BatchReport     `json:"batches"`
	Machines   []MachineReport   `json:"machines"`
	Supersteps []SuperstepReport `json:"supersteps"`
	Metrics    []MetricSnapshot  `json:"metrics"`
	// Adaptive is present only when the closed-loop tuner drove the run
	// (trailing omitempty pointer, so non-adaptive reports are unchanged).
	Adaptive *AdaptiveSection `json:"adaptive,omitempty"`
}

// Report assembles the run report from everything the collector observed
// plus the job-level result, res, of the one run it observed: the phase
// totals are res's. It closes the trailing batch.
func (c *Collector) Report(meta RunMeta, res sim.JobResult) *RunReport {
	c.Finish()
	rep := &RunReport{
		Schema: ReportSchema,
		Job:    meta,
		Result: ResultSummary{
			Seconds:           res.Seconds,
			Rounds:            res.Rounds,
			Batches:           res.Batches,
			Overload:          res.Overload,
			Overflow:          res.Overflow,
			TotalLogicalMsgs:  res.TotalLogicalMsgs,
			MaxMsgsPerRound:   res.MaxMsgsPerRound,
			PeakMemBytes:      res.PeakMemBytes,
			MaxMemRatio:       res.MaxMemRatio,
			NetOveruseSeconds: res.NetOveruseSec,
			MaxDiskUtil:       res.MaxDiskUtil,
			IOOveruseSeconds:  res.IOOveruseSec,
			WireBytesTotal:    res.WireBytesTotal,
			MaxSkewRatio:      res.MaxSkewRatio,
			Credits:           res.Credits,
			CreditsLowerBound: res.CreditsLowerBound,

			CheckpointsWritten: res.CheckpointsWritten,
			CheckpointBytes:    res.CheckpointBytes,
			CheckpointSeconds:  res.CheckpointSeconds,
			Recoveries:         res.Recoveries,
			RoundsLost:         res.RoundsLost,
			RecoverySeconds:    res.RecoverySeconds,

			OOCReadBytes:       res.OOCReadBytes,
			OOCWriteBytes:      res.OOCWriteBytes,
			OOCWindowPeakBytes: res.OOCWindowPeakBytes,
		},
		Phases: PhaseBreakdown{
			ComputeSeconds: res.ComputeSeconds,
			NetSeconds:     res.NetSeconds,
			DiskSeconds:    res.DiskSeconds,
			BarrierSeconds: res.BarrierSeconds,
		},
	}
	var skewSum float64
	var skewN int
	for _, r := range c.rounds {
		o := r.obs
		rep.Supersteps = append(rep.Supersteps, SuperstepReport{
			Round:   r.round,
			Batch:   r.batch,
			Seconds: o.Result.Seconds,
			Phases: PhaseBreakdown{
				ComputeSeconds: o.Result.ComputeSeconds,
				NetSeconds:     o.Result.NetSeconds,
				DiskSeconds:    o.Result.DiskSeconds,
				BarrierSeconds: o.Result.BarrierSeconds,
			},
			LogicalMsgs:  r.logicalMsgs,
			MemRatio:     o.Result.MemRatio,
			ThrashFactor: o.Result.ThrashFactor,
			DiskUtil:     o.Result.DiskUtil,
			SkewRatio:    o.Result.SkewRatio,

			OOCReadBytes:       o.Stats.OOCReadBytes,
			OOCWriteBytes:      o.Stats.OOCWriteBytes,
			OOCWindowPeakBytes: o.Stats.OOCWindowPeakBytes,
		})
		if r.logicalMsgs > 0 {
			skewSum += o.Result.SkewRatio
			skewN++
		}
	}
	rep.Skew = SkewSummary{MaxRatio: res.MaxSkewRatio}
	if skewN > 0 {
		rep.Skew.MeanRatio = skewSum / float64(skewN)
	}
	for _, b := range c.batches {
		rep.Batches = append(rep.Batches, BatchReport{
			Batch:        b.batch,
			StartSeconds: b.startSim,
			Rounds:       b.rounds,
			Seconds:      b.seconds,
			LogicalMsgs:  b.msgs,
			Phases:       b.phases,

			OOCReadBytes:  b.oocRead,
			OOCWriteBytes: b.oocWrite,
		})
	}
	for m, agg := range c.machines {
		rep.Machines = append(rep.Machines, MachineReport{
			Machine:        m,
			SentLogical:    agg.sentLogical,
			RecvLogical:    agg.recvLogical,
			RemoteLogical:  agg.remoteLogical,
			ActiveVertices: agg.activeVertices,
			MaxStateEntry:  agg.maxStateEntry,
			Phases:         agg.phases,
			MaxMemBytes:    agg.maxMemBytes,
		})
	}
	rep.Metrics = c.reg.Snapshot()
	rep.Adaptive = c.adaptive
	return rep
}

// WriteJSON serializes the report with stable formatting (two-space
// indentation, fixed field order, trailing newline).
func (r *RunReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
