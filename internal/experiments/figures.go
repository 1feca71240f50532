package experiments

import (
	"fmt"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// Figure2 reproduces Fig. 2: Full-Parallelism may be sub-optimal (DBLP,
// Galaxy-8) for Pregel+, GraphD and Pregel+(mirror).
func Figure2(o Options) (Figure, error) {
	settings := []setting{
		{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 10240, seed: o.seed()},
		{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.GraphD, task: BPPR, paperW: 6144, seed: o.seed()},
		{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlusMirror, task: BPPR, paperW: 160, seed: o.seed()},
	}
	series, err := runAll(o, settings, func(s setting) string { return s.system.Name })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "Figure 2",
		Title:  "Full-Parallelism may be sub-optimal (DBLP, Galaxy-8)",
		Series: series,
	}, nil
}

// Figure3 reproduces Fig. 3: various experiments on Galaxy-8. Panels (a)
// task, (b) dataset, (c) machines, (d) system.
func Figure3(o Options) (Figure, error) {
	panels := map[string][]setting{
		"a": {
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 12288, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: MSSP, paperW: 4096, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BKHS, paperW: 65536, statScaleOverride: 16000, seed: o.seed()},
		},
		"b": {
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 10240, seed: o.seed()},
			{dataset: "Web-St", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 20480, seed: o.seed()},
			{dataset: "Orkut", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 512, statScaleOverride: 12300, seed: o.seed()},
		},
		"c": {
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 2, system: sim.PregelPlus, task: BPPR, paperW: 2048, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 4, system: sim.PregelPlus, task: BPPR, paperW: 5120, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 10240, seed: o.seed()},
		},
		"d": {
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 10240, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.GiraphAsync, task: BPPR, paperW: 1024, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlusMirror, task: BPPR, paperW: 160, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.GraphD, task: BPPR, paperW: 2048, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.GraphLab, task: BPPR, paperW: 20480, seed: o.seed()},
		},
	}
	return multiPanel(o, "Figure 3", "Various experiments on Galaxy-8", panels)
}

// Figure4 reproduces Fig. 4: optimal batching is workload-dependent
// (BPPR, DBLP, Pregel+, Galaxy-8).
func Figure4(o Options) (Figure, error) {
	settings := []setting{
		{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 1024, seed: o.seed()},
		{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 10240, seed: o.seed()},
		{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 12288, seed: o.seed()},
	}
	series, err := runAll(o, settings, func(s setting) string { return s.system.Name })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "Figure 4",
		Title:  "Optimal batching is workload-dependent (DBLP, Galaxy-8)",
		Series: series,
	}, nil
}

// Figure6Stats is one cell of Fig. 6: per-round messages and running time
// for a (workload, batches) pair.
type Figure6Stats struct {
	PaperW        int
	Batches       int
	MsgsPerRoundM float64 // millions, avg per round
	Seconds       float64
	Overload      bool
}

// Figure6 reproduces Fig. 6: the statistics behind Fig. 4 (messages per
// round vs time, workloads 1024/10240/12288 at 1/2/4 batches).
func Figure6(o Options) ([]Figure6Stats, error) {
	var out []Figure6Stats
	for _, w := range []int{1024, 10240, 12288} {
		s := setting{
			dataset: "DBLP", cluster: sim.Galaxy8, machines: 8,
			system: sim.PregelPlus, task: BPPR, paperW: w,
			batches: []int{1, 2, 4}, seed: o.seed(),
		}
		series, err := s.run(o, "Pregel+")
		if err != nil {
			return nil, err
		}
		for _, row := range series.Rows {
			out = append(out, Figure6Stats{
				PaperW:        w,
				Batches:       row.Batches,
				MsgsPerRoundM: row.Result.AvgMsgsPerRound / 1e6,
				Seconds:       row.Seconds(),
				Overload:      row.Result.Overload,
			})
		}
	}
	return out, nil
}

// Table2Row is one row of Table 2: per-machine memory / time / network
// overuse for a (workload, batches, machines) cell.
type Table2Row struct {
	PaperW        int
	Batches       int
	Machines      int
	MemGB         float64
	Minutes       float64
	NetOveruseMin float64
	Overload      bool
	Overflow      bool
}

// Table2 reproduces Table 2 (workload, #batches, costs per machine).
func Table2(o Options) ([]Table2Row, error) {
	var out []Table2Row
	for _, w := range []int{1024, 4096, 12288} {
		for _, machines := range []int{4, 8} {
			s := setting{
				dataset: "DBLP", cluster: sim.Galaxy8, machines: machines,
				system: sim.PregelPlus, task: BPPR, paperW: w,
				batches: []int{1, 2, 4}, seed: o.seed(),
			}
			series, err := s.run(o, "Pregel+")
			if err != nil {
				return nil, err
			}
			for _, row := range series.Rows {
				out = append(out, Table2Row{
					PaperW:        w,
					Batches:       row.Batches,
					Machines:      machines,
					MemGB:         row.Result.PeakMemBytes / (1 << 30),
					Minutes:       row.Seconds() / 60,
					NetOveruseMin: row.Result.NetOveruseSec / 60,
					Overload:      row.Result.Overload,
					Overflow:      row.Result.Overflow,
				})
			}
		}
	}
	return out, nil
}

// Table3Row is one row of Table 3: GraphD disk statistics per batch count.
type Table3Row struct {
	Batches       int
	NetOveruseSec float64
	IOOveruseSec  float64
	MaxDiskUtil   float64 // >1 renders as ">100%"
	IOQueueLen    float64
	TotalSec      float64
	Overload      bool
}

// Table3 reproduces Table 3: #batches vs disk utilization vs network
// (GraphD, Galaxy-27, workload 2048).
func Table3(o Options) ([]Table3Row, error) {
	s := setting{
		dataset: "DBLP", cluster: sim.Galaxy27, machines: 27,
		system: sim.GraphD, task: BPPR, paperW: 2048, replicaW: 128,
		batches: []int{1, 2, 4, 8, 16, 32, 64, 128}, seed: o.seed(),
	}
	series, err := s.run(o, "GraphD")
	if err != nil {
		return nil, err
	}
	var out []Table3Row
	for _, row := range series.Rows {
		out = append(out, Table3Row{
			Batches:       row.Batches,
			NetOveruseSec: row.Result.NetOveruseSec,
			IOOveruseSec:  row.Result.IOOveruseSec,
			MaxDiskUtil:   row.Result.MaxDiskUtil,
			IOQueueLen:    row.Result.MaxIOQueueLen,
			TotalSec:      row.Seconds(),
			Overload:      row.Result.Overload,
		})
	}
	return out, nil
}

// Figure5 reproduces Fig. 5: various experiments on Galaxy-27.
func Figure5(o Options) (Figure, error) {
	panels := map[string][]setting{
		"a": {
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 34560, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: MSSP, paperW: 3456, statScaleOverride: 12000, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BKHS, paperW: 25600, statScaleOverride: 53000, seed: o.seed()},
		},
		"b": {
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 34560, seed: o.seed()},
			{dataset: "Web-St", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 69120, seed: o.seed()},
			{dataset: "LiveJournal", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 8192, seed: o.seed()},
			{dataset: "Orkut", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 3000, seed: o.seed()},
			{dataset: "Twitter", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 128, replicaW: 16, seed: o.seed()},
			{dataset: "Friendster", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 16, replicaW: 8, seed: o.seed()},
		},
		"c": {
			{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 10240, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 16, system: sim.PregelPlus, task: BPPR, paperW: 20480, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 34560, seed: o.seed()},
		},
		"d": {
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 34560, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.Giraph, task: BPPR, paperW: 6400, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.GiraphAsync, task: BPPR, paperW: 6400, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlusMirror, task: BPPR, paperW: 256, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.GraphD, task: BPPR, paperW: 5120, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.GraphLab, task: BPPR, paperW: 1600, seed: o.seed()},
		},
	}
	return multiPanel(o, "Figure 5", "Various experiments on Galaxy-27", panels)
}

// Figure7 reproduces Fig. 7: performance and monetary costs on Docker-32.
func Figure7(o Options) (Figure, error) {
	panels := map[string][]setting{
		"a": {
			{dataset: "DBLP", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BPPR, paperW: 40960, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: MSSP, paperW: 4096, statScaleOverride: 10000, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BKHS, paperW: 8192, statScaleOverride: 94000, seed: o.seed()},
		},
		"b": {
			{dataset: "DBLP", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BPPR, paperW: 40960, seed: o.seed()},
			{dataset: "Web-St", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BPPR, paperW: 81920, seed: o.seed()},
			{dataset: "Orkut", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BPPR, paperW: 4096, seed: o.seed()},
			{dataset: "Twitter", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BPPR, paperW: 128, replicaW: 16, seed: o.seed()},
		},
		"c": {
			{dataset: "DBLP", cluster: sim.Docker32, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 10240, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Docker32, machines: 16, system: sim.PregelPlus, task: BPPR, paperW: 20480, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BPPR, paperW: 40960, seed: o.seed()},
		},
		"d": {
			{dataset: "DBLP", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BPPR, paperW: 40960, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Docker32, machines: 32, system: sim.GraphD, task: BPPR, paperW: 4096, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Docker32, machines: 32, system: sim.Giraph, task: BPPR, paperW: 8192, seed: o.seed()},
			{dataset: "DBLP", cluster: sim.Docker32, machines: 32, system: sim.PregelPlusMirror, task: BPPR, paperW: 160, seed: o.seed()},
		},
	}
	fig, err := multiPanel(o, "Figure 7", "Performance and monetary costs in the cloud (Docker-32)", panels)
	if err != nil {
		return Figure{}, err
	}
	fig.Notes = append(fig.Notes, creditNotes(fig)...)
	return fig, nil
}

// creditNotes sums per-batch-setting credits across a figure's series, the
// way Fig. 7 annotates its x-axis, plus the optimum total.
func creditNotes(fig Figure) []string {
	perBatch := map[int]float64{}
	lower := map[int]bool{}
	var optimum float64
	for _, s := range fig.Series {
		best := s.Best()
		optimum += best.Result.Credits
		for _, r := range s.Rows {
			perBatch[r.Batches] += r.Result.Credits
			if r.Result.CreditsLowerBound {
				lower[r.Batches] = true
			}
		}
	}
	var notes []string
	for _, k := range defaultBatches {
		if c, ok := perBatch[k]; ok {
			mark := ""
			if lower[k] {
				mark = ">"
			}
			notes = append(notes, fmt.Sprintf("%d-batch credits: %s$%.0f", k, mark, c))
		}
	}
	notes = append(notes, fmt.Sprintf("optimal monetary cost: $%.0f", optimum))
	return notes
}

// Figure8 reproduces Fig. 8: different tasks on the Twitter dataset in
// Docker-32, where BPPR's residual memory makes Full-Parallelism optimal.
func Figure8(o Options) (Figure, error) {
	settings := []setting{
		{dataset: "Twitter", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BPPR, paperW: 128, replicaW: 16, seed: o.seed()},
		{dataset: "Twitter", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: MSSP, paperW: 16, replicaW: 8, statScaleOverride: 10000, seed: o.seed()},
		{dataset: "Twitter", cluster: sim.Docker32, machines: 32, system: sim.PregelPlus, task: BKHS, paperW: 4096, statScaleOverride: 5200, seed: o.seed()},
	}
	series, err := runAll(o, settings, func(s setting) string { return string(s.task) })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "Figure 8",
		Title:  "Different tasks on Twitter dataset in Docker-32",
		Series: series,
	}, nil
}

// Figure9Point is one Δ setting of Fig. 9: the two-batch split W1-W2=Δ,
// its combined time, and the times of running each half alone.
type Figure9Point struct {
	Delta       int // paper-scale W1 - W2
	CombinedSec float64
	FirstAlone  float64
	SecondAlone float64
	Overload    bool
}

// Figure9 reproduces Fig. 9: unequal two-batch splits of a fixed BPPR
// workload on DBLP; panel (a) Galaxy-8 (total 12800), panel (b) Galaxy-27
// (total 40960).
func Figure9(o Options) (map[string][]Figure9Point, error) {
	out := map[string][]Figure9Point{}
	type panel struct {
		name      string
		cluster   sim.ClusterProfile
		machines  int
		paperTot  int
		paperStep int
	}
	panels := []panel{
		{"a", sim.Galaxy8, 8, 12800, 2560},
		{"b", sim.Galaxy27, 27, 40960, 8192},
	}
	for _, p := range panels {
		d, err := graph.Dataset("DBLP")
		if err != nil {
			return nil, err
		}
		g := d.Load()
		part := graph.HashPartition(g.NumVertices(), p.machines)
		div := 64
		if o.Fast {
			div *= 4
		}
		total := p.paperTot / div
		step := p.paperStep / div
		if step < 1 {
			step = 1
		}
		base := setting{
			dataset: "DBLP", cluster: p.cluster, machines: p.machines,
			system: sim.PregelPlus, task: BPPR, paperW: p.paperTot, seed: o.seed(),
		}
		cfg := base.jobConfig(d, total)
		aloneSec := func(w int, seed uint64) (float64, bool, error) {
			if w <= 0 {
				return 0, false, nil
			}
			job, err := base.makeJob(g, part, w, seed, o)
			if err != nil {
				return 0, false, err
			}
			res, err := batch.Run(job, cfg, batch.Single(w), nil)
			if err != nil {
				return 0, false, err
			}
			sec := res.Seconds
			if res.Overload && sec > sim.DefaultCutoffSeconds {
				sec = sim.DefaultCutoffSeconds
			}
			return sec, res.Overload, nil
		}
		for delta := -4 * step; delta <= 4*step; delta += step {
			sched := batch.TwoUnequal(total, delta)
			job, err := base.makeJob(g, part, total, o.seed()+uint64(delta+1e6), o)
			if err != nil {
				return nil, err
			}
			res, err := batch.Run(job, cfg, sched, nil)
			if err != nil {
				return nil, err
			}
			combined := res.Seconds
			if res.Overload && combined > sim.DefaultCutoffSeconds {
				combined = sim.DefaultCutoffSeconds
			}
			first, _, err := aloneSec(sched[0], o.seed()+7)
			if err != nil {
				return nil, err
			}
			second, _, err := aloneSec(sched[1], o.seed()+13)
			if err != nil {
				return nil, err
			}
			out[p.name] = append(out[p.name], Figure9Point{
				Delta:       delta * div,
				CombinedSec: combined,
				FirstAlone:  first,
				SecondAlone: second,
				Overload:    res.Overload,
			})
		}
	}
	return out, nil
}

// Figure10 reproduces Fig. 10: the whole-graph access mode of §4.9 (graph
// replicated to each machine, workload partitioned, results aggregated).
func Figure10(o Options) (Figure, error) {
	settings := []setting{
		{dataset: "DBLP", cluster: sim.Galaxy8, machines: 8, system: sim.PregelPlus, task: BPPR, paperW: 10240, seed: o.seed(), wholeGraph: true},
		{dataset: "DBLP", cluster: sim.Galaxy27, machines: 16, system: sim.PregelPlus, task: BPPR, paperW: 20480, seed: o.seed(), wholeGraph: true},
		{dataset: "DBLP", cluster: sim.Galaxy27, machines: 27, system: sim.PregelPlus, task: BPPR, paperW: 34560, seed: o.seed(), wholeGraph: true},
	}
	series, err := runAll(o, settings, func(s setting) string { return s.system.Name })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "Figure 10",
		Title:  "Whole-graph access mode (graph replicated per machine)",
		Series: series,
	}, nil
}

// Table4Cell is one (machines, workload) cell of Table 4.
type Table4Cell struct {
	Machines             int
	Task                 string // "PageRank" or "BPPR"
	PaperW               int    // 0 for PageRank
	SyncSec              float64
	AsyncSec             float64
	SyncBytesPerMachine  float64
	AsyncBytesPerMachine float64
}

// Table4 reproduces Table 4: GraphLab(sync) vs GraphLab(async) on PageRank
// and BPPR across 1–16 machines.
func Table4(o Options) ([]Table4Cell, error) {
	d, err := graph.Dataset("DBLP")
	if err != nil {
		return nil, err
	}
	g := d.Load()
	div := 8
	if o.Fast {
		div = 32
	}
	var out []Table4Cell
	for _, machines := range []int{1, 2, 4, 8, 16} {
		part := graph.HashPartition(g.NumVertices(), machines)
		mkCfg := func(sys sim.SystemProfile, statScale float64) sim.JobConfig {
			return tasks.CostConfig(d, sim.Galaxy27.WithMachines(machines), sys, statScale)
		}
		// PageRank: sync 30 iterations vs async delta propagation.
		prSync := sim.NewRun(mkCfg(sim.GraphLab, d.ScaleNodes()))
		if _, err := tasks.PageRank(g, part, prSync, tasks.PageRankConfig{Iterations: 30, Seed: o.seed()}); err != nil {
			return nil, err
		}
		prAsync := sim.NewRun(mkCfg(sim.GraphLabAsync, d.ScaleNodes()))
		if _, err := tasks.AsyncPageRank(g, part, prAsync, tasks.AsyncPageRankConfig{Seed: o.seed()}); err != nil {
			return nil, err
		}
		rs, ra := prSync.Result(), prAsync.Result()
		out = append(out, Table4Cell{
			Machines: machines, Task: "PageRank",
			SyncSec: rs.Seconds, AsyncSec: ra.Seconds,
			SyncBytesPerMachine:  rs.WireBytesPerMach,
			AsyncBytesPerMachine: ra.WireBytesPerMach,
		})
		// BPPR at workloads 8..512.
		for _, w := range []int{8, 32, 128, 512} {
			rw := w / div
			if rw < 1 {
				rw = 1
			}
			scale := d.ScaleNodes() * float64(w) / float64(rw)
			runPair := func(sys sim.SystemProfile, async bool) (sim.JobResult, error) {
				job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: rw, Async: async, Seed: o.seed()})
				return batch.Run(job, mkCfg(sys, scale), batch.Single(rw), nil)
			}
			sres, err := runPair(sim.GraphLab, false)
			if err != nil {
				return nil, err
			}
			ares, err := runPair(sim.GraphLabAsync, true)
			if err != nil {
				return nil, err
			}
			out = append(out, Table4Cell{
				Machines: machines, Task: "BPPR", PaperW: w,
				SyncSec: sres.Seconds, AsyncSec: ares.Seconds,
				SyncBytesPerMachine:  sres.WireBytesPerMach,
				AsyncBytesPerMachine: ares.WireBytesPerMach,
			})
		}
	}
	return out, nil
}

// multiPanel assembles a figure from lettered panels.
func multiPanel(o Options, id, title string, panels map[string][]setting) (Figure, error) {
	fig := Figure{ID: id, Title: title}
	for _, letter := range []string{"a", "b", "c", "d"} {
		settings, ok := panels[letter]
		if !ok {
			continue
		}
		for _, s := range settings {
			suffix := s.system.Name
			switch letter {
			case "a":
				suffix = string(s.task)
			case "b":
				suffix = s.dataset
			}
			ser, err := s.run(o, suffix)
			if err != nil {
				return Figure{}, err
			}
			ser.Label = fmt.Sprintf("(%s) %s", letter, ser.Label)
			fig.Series = append(fig.Series, ser)
		}
	}
	return fig, nil
}
