package experiments

import (
	"fmt"
	"io"
	"strings"
)

// timeCell renders a row's time like the paper's bars: seconds, or
// "overload"/"overflow" past the cutoff (§4: "We mark a result as overload
// when the task cannot be finished within 6000 seconds").
func timeCell(r Row) string {
	if r.Result.Overflow {
		return "overflow"
	}
	if r.Result.Overload {
		return "overload"
	}
	return fmt.Sprintf("%.1fs", r.Result.Seconds)
}

// secCell renders whole seconds, or "overload" past the cutoff.
func secCell(sec float64, overload bool) string {
	if overload {
		return "overload"
	}
	return fmt.Sprintf("%.0fs", sec)
}

// WriteFigure renders a figure as an aligned text table, one series per
// row, one batch setting per column, with the best batch starred (the
// paper's yellow arrows).
func WriteFigure(w io.Writer, fig Figure) {
	fmt.Fprintf(w, "== %s: %s ==\n", fig.ID, fig.Title)
	if len(fig.Series) == 0 {
		return
	}
	header := []string{"series"}
	for _, r := range fig.Series[0].Rows {
		header = append(header, fmt.Sprintf("%d-batch", r.Batches))
	}
	rows := [][]string{header}
	for _, s := range fig.Series {
		best := s.Best()
		row := []string{s.Label}
		for _, r := range s.Rows {
			cell := timeCell(r)
			if r.AggregationSeconds > 0 {
				cell += fmt.Sprintf(" (+agg %.0fs)", r.AggregationSeconds)
			}
			if r.Batches == best.Batches {
				cell = "*" + cell
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	for _, n := range fig.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteFigure6 renders the Fig. 6 statistics grid.
func WriteFigure6(w io.Writer, stats []Figure6Stats) {
	fmt.Fprintln(w, "== Figure 6: statistics of Figure 4 (messages per round vs time) ==")
	rows := [][]string{{"workload", "batches", "#msgs/round (M)", "time"}}
	for _, s := range stats {
		t := fmt.Sprintf("%.1fs", s.Seconds)
		if s.Overload {
			t = "overload"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.PaperW),
			fmt.Sprintf("%d", s.Batches),
			fmt.Sprintf("%.1f", s.MsgsPerRoundM),
			t,
		})
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}

// WriteTable2 renders Table 2.
func WriteTable2(w io.Writer, rows2 []Table2Row) {
	fmt.Fprintln(w, "== Table 2: (workload, #batches, costs per machine) ==")
	rows := [][]string{{"workload", "batches", "machines", "memory", "time", "net-overuse"}}
	for _, r := range rows2 {
		mem := fmt.Sprintf("%.1fGB", r.MemGB)
		t := fmt.Sprintf("%.1fmin", r.Minutes)
		if r.Overflow {
			mem = "Overflow"
		}
		if r.Overload {
			t = "Overload"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.PaperW),
			fmt.Sprintf("%d", r.Batches),
			fmt.Sprintf("%d", r.Machines),
			mem, t,
			fmt.Sprintf("%.1fmin", r.NetOveruseMin),
		})
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}

// WriteTable3 renders Table 3.
func WriteTable3(w io.Writer, rows3 []Table3Row) {
	fmt.Fprintln(w, "== Table 3: #batches vs disk utilization vs network (GraphD, 27 machines, workload 2048) ==")
	rows := [][]string{{"batches", "overuse-net", "overuse-IO", "max-disk-util", "IO-queue", "total"}}
	for _, r := range rows3 {
		util := fmt.Sprintf("%.0f%%", r.MaxDiskUtil*100)
		if r.MaxDiskUtil > 1 {
			util = ">100%"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Batches),
			fmt.Sprintf("%.0fs", r.NetOveruseSec),
			fmt.Sprintf("%.0fs", r.IOOveruseSec),
			util,
			fmt.Sprintf("%.0f", r.IOQueueLen),
			secCell(r.TotalSec, r.Overload),
		})
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}

// WriteTable4 renders Table 4.
func WriteTable4(w io.Writer, cells []Table4Cell) {
	fmt.Fprintln(w, "== Table 4: GraphLab(sync) vs GraphLab(async) (seconds / bytes-per-machine) ==")
	rows := [][]string{{"machines", "task", "sync", "async"}}
	for _, c := range cells {
		task := c.Task
		if c.PaperW > 0 {
			task = fmt.Sprintf("%s(%d)", c.Task, c.PaperW)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Machines),
			task,
			fmt.Sprintf("%.1fs/%s", c.SyncSec, bytesHuman(c.SyncBytesPerMachine)),
			fmt.Sprintf("%.1fs/%s", c.AsyncSec, bytesHuman(c.AsyncBytesPerMachine)),
		})
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}

// WriteFigure9 renders the Fig. 9 unequal-batch panels.
func WriteFigure9(w io.Writer, panels map[string][]Figure9Point) {
	fmt.Fprintln(w, "== Figure 9: unequal batches are beneficial (BPPR, DBLP) ==")
	for _, name := range []string{"a", "b"} {
		pts, ok := panels[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "(%s)\n", name)
		rows := [][]string{{"Δ=W1-W2", "two-batch", "1st alone", "2nd alone"}}
		for _, p := range pts {
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.Delta),
				secCell(p.CombinedSec, p.Overload),
				fmt.Sprintf("%.0fs", p.FirstAlone),
				fmt.Sprintf("%.0fs", p.SecondAlone),
			})
		}
		writeAligned(w, rows)
	}
	fmt.Fprintln(w)
}

// WriteFigure12 renders the tuning case-study panels.
func WriteFigure12(w io.Writer, panels []Figure12Panel) {
	fmt.Fprintln(w, "== Figure 12: tuning Pregel+ with the Section-5 framework (DBLP) ==")
	for _, p := range panels {
		fmt.Fprintf(w, "(%s, %d machines)\n", p.Task, p.Machines)
		rows := [][]string{{"workload", "Full-Parallelism", "Optimized", "schedule"}}
		for _, pt := range p.Points {
			rows = append(rows, []string{
				fmt.Sprintf("%d", pt.PaperW),
				secCell(pt.FullSec, pt.FullOverload),
				fmt.Sprintf("%.0fs", pt.OptimizedSec),
				fmt.Sprintf("%v", []int(pt.Schedule)),
			})
		}
		writeAligned(w, rows)
	}
	fmt.Fprintln(w)
}

// WriteFigureAdaptive renders the closed-loop tuning study.
func WriteFigureAdaptive(w io.Writer, points []AdaptivePoint) {
	fmt.Fprintln(w, "== Figure A: static vs adaptive §5 tuning under mispriced training (BPPR, DBLP, 4 machines) ==")
	rows := [][]string{{"bias", "pressure", "workload", "static", "adaptive", "oracle", "replans", "max-err", "schedule"}}
	for _, p := range points {
		static := secCell(p.Static.Seconds, p.Static.Overload)
		if p.StaticDegraded {
			static += " (degraded)"
		}
		sched := fmt.Sprintf("%d batches", len(p.StaticSchedule))
		if n := len(p.StaticSchedule); n > 0 && n <= 6 {
			sched = fmt.Sprintf("%v", []int(p.StaticSchedule))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.TrainBias),
			fmt.Sprintf("%.1f", p.Pressure),
			fmt.Sprintf("%d", p.Workload),
			static,
			fmt.Sprintf("%s (%d batches)", secCell(p.AdaptiveSec, p.AdaptiveOverload), p.AdaptiveBatches),
			secCell(p.OracleSec, p.OracleOverload),
			fmt.Sprintf("%d", p.Replans),
			fmt.Sprintf("%.2f", p.MaxRelError),
			sched,
		})
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}

// WriteScaleUp renders the scale-up vs scale-out comparison (§4.9).
func WriteScaleUp(w io.Writer, r ScaleUpResult) {
	fmt.Fprintf(w, "== Scale-up vs scale-out: BPPR %d at Full-Parallelism (DBLP, Pregel+) ==\n", r.PaperW)
	writeAligned(w, [][]string{
		{"setup", "time"},
		{"Galaxy-8 (8 machines)", secCell(r.ClusterSeconds, r.ClusterOverload)},
		{"Strong-1 (1 machine, 8x memory and cores)", secCell(r.StrongSeconds, r.StrongOverload)},
	})
	fmt.Fprintln(w)
}

// WriteAblations renders the ablations, one row each: the same workload
// with the design choice off (baseline) and on (variant).
func WriteAblations(w io.Writer, results []AblationResult) {
	fmt.Fprintln(w, "== Ablations: design choice off (baseline) vs on (variant) (BPPR, DBLP, Galaxy-8) ==")
	rows := [][]string{{"ablation", "baseline", "variant", "baseline-wire", "variant-wire"}}
	for _, r := range results {
		rows = append(rows, []string{
			r.Name,
			secCell(r.BaselineSeconds, r.BaselineOverload),
			secCell(r.VariantSeconds, r.VariantOverload),
			fmt.Sprintf("%.2fGB", r.BaselineWireGB),
			fmt.Sprintf("%.2fGB", r.VariantWireGB),
		})
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}

func bytesHuman(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.1fG", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.0fM", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.0fK", b/1e3)
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}
