package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/ooc"
	"vcmt/internal/randx"
	"vcmt/internal/tasks"
)

// oocBudget is ooc-stream's resident-window budget.
const oocBudget = 1 << 20

// inproc is the three workloads that run jobs through the in-process
// pipeline, one-shot style: every pass starts from the dump on disk and ends
// with report bytes. They differ only in dataset, job list and backend.
type inproc struct {
	dir     string
	dataset graph.DatasetSpec
	jobs    []jobSpec
	dump    string
	dumpLen int64
	ioStats *ooc.IOStats // ooc-stream only

	// What the last probed pass left for the oracles and the exact counts.
	g    *graph.Graph
	kept []jobOut

	// Traced-run measurements (ooc-stream).
	bpprWalls []float64
	memTwinS  float64
	plainP50  float64
}

func newInproc(name string, seed uint64, dir string) (*inproc, error) {
	w := &inproc{dir: dir}
	dataset := "LiveJournal"
	if name == "ooc-stream" {
		dataset = "DBLP"
	}
	d, err := graph.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	w.dataset = d
	// One stream per run draws the source vertices, in job order; the seed is
	// also every task's Seed (but for ooc-stream's BPPR leg, below).
	rng := randx.New(seed)
	job := func(task string, workload int) jobSpec {
		js := jobSpec{Task: task, Dataset: d, Workload: workload, Batches: 2, K: 2, Seed: seed, Workers: pinnedProcs}
		if task != "BPPR" {
			js.Sources = pickSources(rng, d.Nodes, workload)
		}
		return js
	}
	switch name {
	case "mem-fewrounds":
		w.jobs = []jobSpec{job("MSSP", 64), job("BKHS", 2048)}
		// No command-line path switches a combiner on, so only the lighter
		// job pays for keyed send-time combining (it triples BKHS and would
		// slow MSSP sixfold); the heavier one runs as vcrun runs it.
		w.jobs[1].Combine = true
	case "mem-manyrounds":
		w.jobs = []jobSpec{job("BPPR", 48)}
	case "ooc-stream":
		w.ioStats = &ooc.IOStats{}
		w.jobs = []jobSpec{job("MSSP", 16), job("BKHS", 256), job("BPPR", 16)}
		// Out of core every superstep costs a fixed ≈3 ms and ≈3 MB, and
		// BPPR's superstep count is its longest walk: over ten seeds it ran
		// from 130 to 179 and moved the whole pass by 13 %. The leg keeps
		// vcrun's default seed; --seed still picks the other legs' sources.
		w.jobs[2].Seed = 7
		for i := range w.jobs {
			w.jobs[i].OOC = &tasks.OOCConfig{
				Dir:               filepath.Join(dir, "ooc", fmt.Sprintf("job%d", i)),
				MemoryBudgetBytes: oocBudget,
				Stats:             w.ioStats,
			}
		}
	}
	return w, nil
}

func (w *inproc) drivers() int { return 1 }

func (w *inproc) setUp(p *probe, parent obs.SpanID) error {
	var err error
	w.dump, w.dumpLen, err = writeDump(w.dataset, w.dir, p, parent)
	return err
}

// writeDump generates the dataset's replica the way DatasetSpec.Load does
// (whose process-wide cache would make a second set-up free) and writes its
// v3 dump into dir.
func writeDump(d graph.DatasetSpec, dir string, p *probe, parent obs.SpanID) (string, int64, error) {
	span := p.begin(parent, 0, "graph", "generate")
	g := graph.GenerateChungLu(d.Nodes, d.Edges/2, d.Gamma, d.Seed)
	p.end(span)

	span = p.begin(parent, 0, "graph", "write-dump")
	defer p.end(span)
	path := filepath.Join(dir, d.Name+".bin")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	if err := graph.WriteBinary(f, g); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return path, st.Size(), nil
}

func (w *inproc) pass(_ int, p *probe, parent obs.SpanID) (passOut, error) {
	g, part, err := loadDump(w.dump, w.dataset, p, parent, 0)
	if err != nil {
		return passOut{}, err
	}
	var out passOut
	outs := make([]jobOut, len(w.jobs))
	digest := sha256.New()
	for i, js := range w.jobs {
		t0 := time.Now()
		outs[i], err = runJob(g, part, js, p, parent, 0)
		if err != nil {
			return passOut{}, err
		}
		if p != nil && js.OOC != nil && js.Task == "BPPR" {
			w.bpprWalls = append(w.bpprWalls, time.Since(t0).Seconds())
		}
		out.msgs += outs[i].msgs
		digest.Write(outs[i].report)
	}
	span := p.begin(parent, 0, "bench", "verify")
	digest.Sum(out.sum[:0])
	p.end(span)
	if p != nil && p.keep {
		w.g, w.kept = g, outs
	}
	return out, nil
}

func (w *inproc) checkOracles() error {
	for i, js := range w.jobs {
		if err := checkTaskOutputs(w.g, js, w.kept[i].job); err != nil {
			return err
		}
	}
	return nil
}

func (w *inproc) exactCounts(m map[string]float64) {
	m["graph.load_bytes"] = float64(w.dumpLen)
	jobCounts(w.kept, m)
}

// jobCounts adds the exact counts a pass's in-process jobs carry in their
// results and report bytes.
func jobCounts(outs []jobOut, m map[string]float64) {
	for _, o := range outs {
		m["tasks.batches"] += float64(o.batches)
		m["sim.seconds"] += o.res.Seconds
		m["sim.peak_mem_bytes"] = max(m["sim.peak_mem_bytes"], o.res.PeakMemBytes)
		m["obs.report_bytes"] += float64(len(o.report))
		m["ooc.read_bytes"] += float64(o.res.OOCReadBytes)
		m["ooc.write_bytes"] += float64(o.res.OOCWriteBytes)
		m["ooc.window_peak_bytes"] = max(m["ooc.window_peak_bytes"], float64(o.res.OOCWindowPeakBytes))
	}
	m["ooc.window_over_budget_ratio"] = m["ooc.window_peak_bytes"] / oocBudget
}

// extras runs ooc-stream's in-memory twin: the same jobs, resident, on one
// worker (the out-of-core backend forces workers=1), three times.
func (w *inproc) extras(p *probe, parent obs.SpanID, plainP50 float64) error {
	w.plainP50 = plainP50
	if w.ioStats == nil {
		return nil
	}
	twin := *w
	twin.jobs = append([]jobSpec(nil), w.jobs...)
	for i := range twin.jobs {
		twin.jobs[i].OOC, twin.jobs[i].Workers = nil, 1
	}
	var walls []float64
	for i := 0; i < 3; i++ {
		span := p.begin(parent, 0, "bench", "mem-twin")
		t0 := time.Now()
		_, err := twin.pass(0, nil, 0)
		walls = append(walls, time.Since(t0).Seconds())
		p.end(span)
		if err != nil {
			return err
		}
	}
	w.memTwinS = median(walls)
	return nil
}

func (w *inproc) layerMetrics(_ *spanSet, passes int, m map[string]float64) {
	if w.ioStats == nil {
		return
	}
	// IOStats accumulates over every pass this set-up ran, so the rate is
	// over all of them and the per-pass time is scaled from the exact bytes.
	io := w.ioStats
	bytesPerPass := m["ooc.read_bytes"] + m["ooc.write_bytes"]
	m["ooc.io_mb_per_s"] = io.BytesPerSec() / 1e6
	m["ooc.io_s"] = ratio(bytesPerPass, io.BytesPerSec())
	m["ooc.bytes_per_msg"] = ratio(bytesPerPass, m["engine.msgs_logical"])
	bppr := w.kept[len(w.kept)-1]
	m["ooc.per_superstep_s"] = ratio(median(w.bpprWalls), float64(bppr.res.Rounds))
	m["ooc.slowdown_vs_mem"] = ratio(w.plainP50, w.memTwinS)
}

func (w *inproc) close() {}
