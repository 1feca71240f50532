package obs

import (
	"encoding/csv"
	"fmt"
	"io"

	"vcmt/internal/sim"
)

// WriteRoundCSV writes one row per superstep the collector observed, after
// a header row: the round's priced statistics at paper scale, its logical
// message count extrapolated by statScale (the run's JobConfig.StatScale).
// It returns the number of rows.
func (c *Collector) WriteRoundCSV(w io.Writer, statScale float64) (int, error) {
	// A csv.Writer's write errors are sticky: Error reports the first one
	// after Flush, so the per-row Write results need no check.
	cw := csv.NewWriter(w)
	cw.Write([]string{
		"round", "batch", "seconds", "logical_msgs", "peak_mem_bytes",
		"mem_ratio", "thrash_factor", "net_seconds", "disk_seconds",
		"disk_util", "wire_bytes", "compute_seconds", "barrier_seconds",
		"skew_ratio", "ooc_read_bytes", "ooc_write_bytes", "ooc_window_peak_bytes",
	})
	for _, r := range c.rounds {
		res, st := r.obs.Result, r.obs.Stats
		cw.Write([]string{
			fmt.Sprintf("%d", r.round),
			fmt.Sprintf("%d", r.batch),
			fmt.Sprintf("%.6f", res.Seconds),
			fmt.Sprintf("%.0f", r.logicalMsgs*statScale),
			fmt.Sprintf("%.0f", res.PeakMemBytes),
			fmt.Sprintf("%.4f", res.MemRatio),
			fmt.Sprintf("%.4f", res.ThrashFactor),
			fmt.Sprintf("%.6f", res.NetSeconds),
			fmt.Sprintf("%.6f", res.DiskSeconds),
			fmt.Sprintf("%.4f", res.DiskUtil),
			fmt.Sprintf("%.0f", res.WireBytes),
			fmt.Sprintf("%.6f", res.ComputeSeconds),
			fmt.Sprintf("%.6f", res.BarrierSeconds),
			fmt.Sprintf("%.4f", res.SkewRatio),
			fmt.Sprintf("%d", st.OOCReadBytes),
			fmt.Sprintf("%d", st.OOCWriteBytes),
			fmt.Sprintf("%d", st.OOCWindowPeakBytes),
		})
	}
	cw.Flush()
	return len(c.rounds), cw.Error()
}

// WriteMachineCSV writes one row per (superstep, machine) the collector
// observed, after a header row: the machine's raw counters (replica scale)
// and its cost decomposition (paper scale) — what straggler and skew
// analyses need. It returns the number of rows.
func (c *Collector) WriteMachineCSV(w io.Writer) (int, error) {
	cw := csv.NewWriter(w)
	cw.Write([]string{
		"round", "batch", "machine", "sent_logical", "recv_logical",
		"remote_logical", "active_vertices", "state_entries",
		"compute_seconds", "net_seconds", "disk_seconds", "mem_bytes",
	})
	n := 0
	for _, r := range c.rounds {
		for m, mr := range r.obs.Stats.PerMachine {
			var mc sim.MachineCost
			if m < len(r.obs.Result.PerMachine) {
				mc = r.obs.Result.PerMachine[m]
			}
			cw.Write([]string{
				fmt.Sprintf("%d", r.round),
				fmt.Sprintf("%d", r.batch),
				fmt.Sprintf("%d", m),
				fmt.Sprintf("%d", mr.SentLogical),
				fmt.Sprintf("%d", mr.RecvLogical),
				fmt.Sprintf("%d", mr.RemoteLogical),
				fmt.Sprintf("%d", mr.ActiveVertices),
				fmt.Sprintf("%d", mr.StateEntries),
				fmt.Sprintf("%.6f", mc.ComputeSeconds),
				fmt.Sprintf("%.6f", mc.NetSeconds),
				fmt.Sprintf("%.6f", mc.DiskSeconds),
				fmt.Sprintf("%.0f", mc.MemBytes),
			})
			n++
		}
	}
	cw.Flush()
	return n, cw.Error()
}
