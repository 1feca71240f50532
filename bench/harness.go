package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"vcmt/internal/obs"
	"vcmt/internal/sim"
)

// passOut is what one verified pass returns to the harness.
type passOut struct {
	msgs int64    // logical vertex messages the pass moved
	sum  [32]byte // SHA-256 of the pass's report or result bytes
}

// workload is one of the five job lists. A pass runs the list once for one
// driver and verifies it; everything else is set-up or measurement around
// passes.
type workload interface {
	// drivers is the number of concurrent closed-loop callers.
	drivers() int
	// setUp makes the inputs from the seed and starts what passes run
	// against. It does everything before the warm-up pass.
	setUp(p *probe, parent obs.SpanID) error
	pass(driver int, p *probe, parent obs.SpanID) (passOut, error)
	// checkOracles holds the outputs the last probed pass kept to
	// internal/ref.
	checkOracles() error
	// exactCounts adds the workload's own exact per-pass counts, known once
	// a probed pass has run.
	exactCounts(m map[string]float64)
	// extras runs the traced run's twins; plainP50 is the untraced pass
	// median they are compared with.
	extras(p *probe, parent obs.SpanID, plainP50 float64) error
	// layerMetrics adds the workload's own per-layer metrics from the
	// traced passes' spans.
	layerMetrics(s *spanSet, passes int, m map[string]float64)
	close()
}

func newWorkload(name string, seed uint64, dir string) (workload, error) {
	switch name {
	case "mem-fewrounds", "mem-manyrounds", "ooc-stream":
		return newInproc(name, seed, dir)
	case "cluster-ckpt":
		return newClusterCkpt(seed, dir), nil
	case "serve-closed":
		return newServeClosed(seed, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	tmp      string    // scratch directory of this run
	outDir   string    // where the Chrome trace goes; "" keeps it in tmp
	text     io.Writer // human-readable lines
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's record in a result file. Metrics is what the
// driver reads from the last output line.
type runResult struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Traced       bool                   `json:"traced"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Metrics      map[string]metricValue `json:"metrics"`
	Exact        map[string]float64     `json:"exact"`
	ReportSHA256 string                 `json:"report_sha256"`
	PassWalls    []float64              `json:"pass_walls_s"` // every bare timed pass, in order of completion
	Errors       []string               `json:"errors,omitempty"`
}

// window is one timed window of passes.
type window struct {
	walls    []float64 // wall-clock of each successful bare pass
	probed   []float64 // wall-clock of each successful probed pass
	msgs     int64
	seconds  float64 // wall-clock of the whole window
	failed   int
	errs     []string
	allocB   uint64
	gcCycles uint32
	gcPause  float64
	cpu      float64
}

func (w *window) attempted() int { return len(w.walls) + len(w.probed) + w.failed }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedWindow runs passes on every driver until the window is `seconds` old
// (each driver finishes the pass it is in), checking every pass's digest
// against the warm-up pass's. With a probe, each driver runs bare and probed
// passes in the order bare-probed-probed-bare, so that neither drift over the
// window nor anything with a period of two passes (a GC cycle every other
// pass) can pass for tracing overhead.
func timedWindow(ctx context.Context, w workload, seconds float64, p *probe, parent obs.SpanID, want [32]byte) window {
	var (
		win window
		mu  sync.Mutex
		wg  sync.WaitGroup
		ms0 runtime.MemStats
		ms1 runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	for d := 0; d < w.drivers(); d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; ; i++ {
				var pp *probe
				if i%4 == 1 || i%4 == 2 {
					pp = p
				}
				t0 := time.Now()
				span := pp.begin(parent, d, "bench", "pass")
				out, err := w.pass(d, pp, span)
				pp.end(span)
				wall := time.Since(t0).Seconds()
				if err == nil && out.sum != want {
					err = fmt.Errorf("digest %x drifted from the warm-up pass's %x", out.sum[:6], want[:6])
				}
				mu.Lock()
				if err != nil {
					win.failed++
					win.errs = append(win.errs, err.Error())
				} else if pp != nil {
					win.probed = append(win.probed, wall)
				} else {
					win.walls = append(win.walls, wall)
					win.msgs += out.msgs
				}
				mu.Unlock()
				// With a probe a driver stops after an even number of
				// passes: it has run as many of one kind as of the other.
				if (time.Since(start).Seconds() >= seconds && (p == nil || i%2 == 1)) || ctx.Err() != nil {
					return
				}
			}
		}(d)
	}
	wg.Wait()
	win.seconds = time.Since(start).Seconds()
	win.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	win.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	win.gcCycles = ms1.NumGC - ms0.NumGC
	win.gcPause = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	return win
}

// exactFrom collects every exact count an untraced run can know: the engine
// counters of the probed warm-up pass and the workload's own.
func exactFrom(warm *probe, w workload) map[string]float64 {
	m := map[string]float64{
		"engine.supersteps":       float64(warm.eng.supersteps),
		"engine.msgs_logical":     float64(warm.eng.logical),
		"engine.msgs_physical":    float64(warm.eng.physical),
		"engine.combined_at_send": float64(warm.eng.combinedAtSend),
		"engine.active_vertices":  float64(warm.eng.active),
	}
	w.exactCounts(m)
	return m
}

// setUpAndWarm builds a workload under dir, runs its set-up and one probed
// warm-up pass, and collects garbage, so the timed passes start warm.
func setUpAndWarm(o runOpts, dir string, warm *probe, parent obs.SpanID) (workload, passOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, passOut{}, err
	}
	w, err := newWorkload(o.workload, o.seed, dir)
	if err != nil {
		return nil, passOut{}, err
	}
	if err := w.setUp(warm, parent); err != nil {
		w.close()
		return nil, passOut{}, fmt.Errorf("set-up: %w", err)
	}
	span := warm.begin(parent, 0, "bench", "warm-up")
	out, err := w.pass(0, warm, span)
	warm.end(span)
	if err != nil {
		w.close()
		return nil, passOut{}, fmt.Errorf("warm-up pass: %w", err)
	}
	runtime.GC()
	return w, out, nil
}

// runUntraced measures the end-to-end metrics: setupReps set-ups (the last
// one is kept), then bare timed passes for o.seconds.
func runUntraced(ctx context.Context, o runOpts) (*runResult, error) {
	var (
		w      workload
		warm   *probe
		want   passOut
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		warm = &probe{epoch: t0, keep: true}
		var err error
		w, want, err = setUpAndWarm(o, filepath.Join(o.tmp, fmt.Sprintf("setup%d", rep)), warm, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	res := &runResult{
		Workload: o.workload, Seed: o.seed,
		Exact:        exactFrom(warm, w),
		ReportSHA256: hex.EncodeToString(want.sum[:]),
	}
	if err := w.checkOracles(); err != nil {
		res.Errors = append(res.Errors, "oracle: "+err.Error())
	}
	win := timedWindow(ctx, w, o.seconds, nil, 0, want.sum)
	res.Attempted, res.Failed, res.PassWalls = win.attempted(), win.failed, win.walls
	res.Errors = append(res.Errors, win.errs...)
	res.Correct = len(res.Errors) == 0

	n := len(win.walls)
	values := map[string]float64{
		"setup_s":           median(setups),
		"pass_wall_s_p50":   median(win.walls),
		"mmsgs_per_s":       float64(win.msgs) / win.seconds / 1e6,
		"alloc_mb_per_pass": ratio(float64(win.allocB)/1e6, float64(win.attempted())),
	}
	res.Metrics = withUnits(endToEnd, values)
	tail := tailPercentile(n)
	fmt.Fprintf(o.text, "set-ups %.4f s each; %d timed passes in %.3f s; pass wall p50 %.4f s, p%g %.4f s, max %.4f s\n",
		setups, n, win.seconds, median(win.walls), tail, percentile(win.walls, tail), maxOf(win.walls))
	return res, nil
}

// runTraced measures the per-layer metrics: one set-up, a window of o.seconds
// in which bare passes (the base of trace.overhead_ratio) alternate with
// traced ones, then the workload's twins.
func runTraced(ctx context.Context, o runOpts) (*runResult, error) {
	epoch := time.Now()
	tr := obs.NewTracer()
	tr.NameProc(0, "bench driver")
	warm := &probe{tr: tr, epoch: epoch, keep: true}
	tp := &probe{tr: tr, epoch: epoch}

	runSpan := warm.begin(0, 0, "bench", "run")
	setupSpan := warm.begin(runSpan, 0, "bench", "setup")
	w, want, err := setUpAndWarm(o, filepath.Join(o.tmp, "setup"), warm, setupSpan)
	if err != nil {
		return nil, err
	}
	defer w.close()
	warm.end(setupSpan)
	res := &runResult{
		Workload: o.workload, Seed: o.seed, Traced: true,
		Exact:        exactFrom(warm, w),
		ReportSHA256: hex.EncodeToString(want.sum[:]),
	}
	if err := w.checkOracles(); err != nil {
		res.Errors = append(res.Errors, "oracle: "+err.Error())
	}
	win := timedWindow(ctx, w, o.seconds, tp, runSpan, want.sum)
	extras := tp.begin(runSpan, 0, "bench", "extras")
	if err := w.extras(tp, extras, median(win.walls)); err != nil {
		res.Errors = append(res.Errors, "twins: "+err.Error())
	}
	tp.end(extras)
	warm.end(runSpan)

	res.Attempted, res.Failed, res.PassWalls = win.attempted(), win.failed, win.walls
	res.Errors = append(res.Errors, win.errs...)

	// Export and validate the trace the way cmd/tracecheck does.
	var buf bytes.Buffer
	t0 := time.Now()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	exportS := time.Since(t0).Seconds()
	traceDir := o.outDir
	if traceDir == "" {
		traceDir = o.tmp
	}
	tracePath := filepath.Join(traceDir, "trace-"+o.workload+".json")
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	nSpans, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	res.Correct = len(res.Errors) == 0

	s := analyze(tr.Spans())
	passes := len(s.durations("pass", "pass"))
	perPass := func(name string) float64 { return ratio(s.total("pass", name), float64(passes)) }
	m := make(map[string]float64, len(perLayer))
	for k, v := range res.Exact {
		m[k] = v
	}
	m["graph.generate_s"] = s.total("setup", "generate")
	m["graph.write_s"] = s.total("setup", "write-dump")
	m["graph.load_s"] = perPass("load") + s.total("setup", "load")
	m["graph.partition_s"] = perPass("partition")
	m["tasks.build_s"] = perPass("build")
	m["tasks.run_batch_s"] = perPass("batch") - perPass("collect")
	m["engine.physical_per_logical"] = ratio(m["engine.msgs_physical"], m["engine.msgs_logical"])
	m["engine.superstep_wall_s_p50"] = median(tp.stepWalls)
	m["engine.superstep_wall_s_max"] = maxOf(tp.stepWalls)
	m["engine.first_superstep_s"] = ratio(sum(tp.firstSteps), float64(len(tp.firstSteps)))
	m["engine.ns_per_msg"] = ratio(m["tasks.run_batch_s"]*1e9, m["engine.msgs_logical"])
	m["sim.price_s"] = priceSeconds(warm.priced)
	m["obs.collect_s"] = perPass("collect")
	m["obs.report_encode_s"] = perPass("report-encode")
	m["obs.trace_export_s"] = exportS
	m["obs.spans"] = ratio(float64(s.count("pass")), float64(passes))
	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.cpu_util"] = ratio(win.cpu, win.seconds*pinnedProcs)
	m["process.gc_cycles"] = ratio(float64(win.gcCycles), float64(win.attempted()))
	m["process.gc_pause_s"] = ratio(win.gcPause, float64(win.attempted()))
	m["trace.overhead_ratio"] = ratio(median(win.probed), median(win.walls)) - 1
	m["trace.unattributed_ratio"] = s.unattributed()
	w.layerMetrics(s, passes, m)
	res.Exact["obs.spans"] = m["obs.spans"]
	res.Metrics = withUnits(perLayer, m)

	fmt.Fprintf(o.text, "%d bare passes (p50 %.4f s), %d traced passes (p50 %.4f s); %d spans validated, trace in %s\n",
		len(win.walls), median(win.walls), len(win.probed), median(win.probed), nSpans, tracePath)
	s.writeLayerTable(o.text, passes)
	return res, nil
}

// priceSeconds replays the captured rounds of one pass through fresh
// sim.Runs: the cost model's share of a pass, which from outside is
// otherwise hidden inside the superstep gaps.
func priceSeconds(jobs []*pricedJob) float64 {
	const reps = 5
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		for _, j := range jobs {
			run := sim.NewRun(j.cfg)
			run.BeginBatch()
			for _, rs := range j.rounds {
				run.ObserveRound(rs)
			}
		}
		times[i] = time.Since(t0).Seconds()
	}
	return median(times)
}

func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
