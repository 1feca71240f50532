package sim

import (
	"encoding/csv"
	"fmt"
	"io"
)

// Trace records one row per superstep so a run's time series — message
// volume, memory pressure, disk utilization — can be exported and plotted
// (the raw material behind the paper's figures). Attach with Run.SetTrace.
//
// With PerMachine set, the trace additionally records one MachineTraceRow
// per (round, machine): the raw per-machine counters and phase costs that
// the worst-machine aggregates of TraceRow are derived from — what the
// paper's straggler and skew analyses need.
type Trace struct {
	Rows []TraceRow

	PerMachine  bool
	MachineRows []MachineTraceRow
}

// TraceRow is one superstep's priced statistics at paper scale.
type TraceRow struct {
	Round          int
	Batch          int
	Seconds        float64
	LogicalMsgs    float64
	PeakMemBytes   float64
	MemRatio       float64
	ThrashFactor   float64
	ComputeSeconds float64
	BarrierSeconds float64
	NetSeconds     float64
	DiskSeconds    float64
	DiskUtil       float64
	WireBytes      float64
	SkewRatio      float64
	// Partitioned out-of-core backend's measured partition-file traffic and
	// peak resident window for the round (replica scale; zero in-memory).
	OOCReadBytes       int64
	OOCWriteBytes      int64
	OOCWindowPeakBytes int64
}

// MachineTraceRow is one machine's raw counters and cost decomposition for
// one superstep. Counts are replica scale (as measured by the engine);
// seconds and memory are paper scale from the cost model.
type MachineTraceRow struct {
	Round          int
	Batch          int
	Machine        int
	SentLogical    int64
	RecvLogical    int64
	RemoteLogical  int64
	ActiveVertices int64
	StateEntries   int64
	ComputeSeconds float64
	NetSeconds     float64
	DiskSeconds    float64
	MemBytes       float64
}

// SetTrace attaches a trace that ObserveRound appends to.
func (r *Run) SetTrace(t *Trace) { r.trace = t }

func (r *Run) traceRound(rs RoundStats, res RoundResult) {
	if r.trace == nil {
		return
	}
	r.trace.Rows = append(r.trace.Rows, TraceRow{
		Round:          r.rounds,
		Batch:          r.batches,
		Seconds:        res.Seconds,
		LogicalMsgs:    float64(rs.TotalSentLogical()) * r.cfg.StatScale,
		PeakMemBytes:   res.PeakMemBytes,
		MemRatio:       res.MemRatio,
		ThrashFactor:   res.ThrashFactor,
		ComputeSeconds: res.ComputeSeconds,
		BarrierSeconds: res.BarrierSeconds,
		NetSeconds:     res.NetSeconds,
		DiskSeconds:    res.DiskSeconds,
		DiskUtil:       res.DiskUtil,
		WireBytes:      res.WireBytes,
		SkewRatio:      res.SkewRatio,

		OOCReadBytes:       rs.OOCReadBytes,
		OOCWriteBytes:      rs.OOCWriteBytes,
		OOCWindowPeakBytes: rs.OOCWindowPeakBytes,
	})
	if !r.trace.PerMachine {
		return
	}
	for m, mr := range rs.PerMachine {
		row := MachineTraceRow{
			Round:          r.rounds,
			Batch:          r.batches,
			Machine:        m,
			SentLogical:    mr.SentLogical,
			RecvLogical:    mr.RecvLogical,
			RemoteLogical:  mr.RemoteLogical,
			ActiveVertices: mr.ActiveVertices,
			StateEntries:   mr.StateEntries,
		}
		if m < len(res.PerMachine) {
			mc := res.PerMachine[m]
			row.ComputeSeconds = mc.ComputeSeconds
			row.NetSeconds = mc.NetSeconds
			row.DiskSeconds = mc.DiskSeconds
			row.MemBytes = mc.MemBytes
		}
		r.trace.MachineRows = append(r.trace.MachineRows, row)
	}
}

// WriteCSV emits the trace with a header row.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"round", "batch", "seconds", "logical_msgs", "peak_mem_bytes",
		"mem_ratio", "thrash_factor", "net_seconds", "disk_seconds",
		"disk_util", "wire_bytes", "compute_seconds", "barrier_seconds",
		"skew_ratio", "ooc_read_bytes", "ooc_write_bytes", "ooc_window_peak_bytes",
	}); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := []string{
			fmt.Sprintf("%d", r.Round),
			fmt.Sprintf("%d", r.Batch),
			fmt.Sprintf("%.6f", r.Seconds),
			fmt.Sprintf("%.0f", r.LogicalMsgs),
			fmt.Sprintf("%.0f", r.PeakMemBytes),
			fmt.Sprintf("%.4f", r.MemRatio),
			fmt.Sprintf("%.4f", r.ThrashFactor),
			fmt.Sprintf("%.6f", r.NetSeconds),
			fmt.Sprintf("%.6f", r.DiskSeconds),
			fmt.Sprintf("%.4f", r.DiskUtil),
			fmt.Sprintf("%.0f", r.WireBytes),
			fmt.Sprintf("%.6f", r.ComputeSeconds),
			fmt.Sprintf("%.6f", r.BarrierSeconds),
			fmt.Sprintf("%.4f", r.SkewRatio),
			fmt.Sprintf("%d", r.OOCReadBytes),
			fmt.Sprintf("%d", r.OOCWriteBytes),
			fmt.Sprintf("%d", r.OOCWindowPeakBytes),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMachineCSV emits the per-machine rows with a header row. The trace
// must have been collected with PerMachine set.
func (t *Trace) WriteMachineCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"round", "batch", "machine", "sent_logical", "recv_logical",
		"remote_logical", "active_vertices", "state_entries",
		"compute_seconds", "net_seconds", "disk_seconds", "mem_bytes",
	}); err != nil {
		return err
	}
	for _, r := range t.MachineRows {
		rec := []string{
			fmt.Sprintf("%d", r.Round),
			fmt.Sprintf("%d", r.Batch),
			fmt.Sprintf("%d", r.Machine),
			fmt.Sprintf("%d", r.SentLogical),
			fmt.Sprintf("%d", r.RecvLogical),
			fmt.Sprintf("%d", r.RemoteLogical),
			fmt.Sprintf("%d", r.ActiveVertices),
			fmt.Sprintf("%d", r.StateEntries),
			fmt.Sprintf("%.6f", r.ComputeSeconds),
			fmt.Sprintf("%.6f", r.NetSeconds),
			fmt.Sprintf("%.6f", r.DiskSeconds),
			fmt.Sprintf("%.0f", r.MemBytes),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
