package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vcmt/internal/core"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/serve"
	"vcmt/internal/tasks"
)

// serveClosed is a closed loop of two clients against the service with one
// job running at a time: each client submits a job, polls it to completion,
// fetches the report, and only then submits the next.
type serveClosed struct {
	dir      string
	specs    []serve.JobSpec
	dumps    map[string]string // dataset -> dump path
	dumpsLen int64
	srv      *serve.Server
	ts       *httptest.Server

	// The in-process one-shot twin of each spec: the bytes every fetched
	// report must equal, and the engine counts the service hides.
	twinSpecs []jobSpec
	twins     []jobOut
	twinSum   [][32]byte
	passSum   [32]byte

	mu   sync.Mutex
	cold map[int]bool // specs whose first job (it trains the model) is still to come
	jobs []jobTiming

	// Traced-run measurements.
	twinWall  []float64
	trainS    float64
	scheduleS float64
	counters  map[string]float64
}

// jobTiming is one steady-state job as its client saw it, in seconds.
type jobTiming struct {
	spec                        int
	submit, queued, wall, fetch float64
	polls                       int
	done                        time.Time
}

func newServeClosed(seed uint64, dir string) *serveClosed {
	w := &serveClosed{dir: dir, dumps: map[string]string{}, cold: map[int]bool{}}
	for i, c := range []struct {
		task, dataset string
		workload      int
	}{{"MSSP", "Web-St", 32}, {"BPPR", "Web-St", 32}, {"BKHS", "DBLP", 256}} {
		sp := serve.JobSpec{
			Task: c.task, Dataset: c.dataset, Workload: c.workload, Batches: 2, K: 2,
			Seed: seed + uint64(i), Workers: pinnedProcs,
		}
		// What `vcrun -report` would run for the same spec: the service and
		// vcrun pick a source count's vertices the same fixed way.
		d, _ := graph.Dataset(c.dataset) // a literal Table 1 name
		js := jobSpec{
			Task: sp.Task, Dataset: d, Workload: sp.Workload, Batches: sp.Batches, K: sp.K,
			Seed: sp.Seed, Workers: sp.Workers,
		}
		if sp.Task != "BPPR" {
			js.Sources = firstSources(d.Nodes, sp.Workload)
		}
		w.specs, w.twinSpecs, w.cold[i] = append(w.specs, sp), append(w.twinSpecs, js), true
	}
	return w
}

func (w *serveClosed) drivers() int { return 2 }

func (w *serveClosed) setUp(p *probe, parent obs.SpanID) error {
	dumpDir := filepath.Join(w.dir, "dumps")
	if err := os.MkdirAll(dumpDir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"Web-St", "DBLP"} {
		d, err := graph.Dataset(name)
		if err != nil {
			return err
		}
		path, n, err := writeDump(d, dumpDir, p, parent)
		if err != nil {
			return err
		}
		w.dumps[name] = path
		w.dumpsLen += n
	}
	span := p.begin(parent, 0, "graph", "load")
	store := serve.NewStore()
	_, err := store.LoadDir(dumpDir)
	p.end(span)
	if err != nil {
		return err
	}
	span = p.begin(parent, 0, "serve", "server-start")
	w.srv = serve.NewServer(serve.Config{Store: store, MaxRunning: 1})
	w.ts = httptest.NewServer(w.srv.Handler())
	p.end(span)

	span = p.begin(parent, 0, "bench", "twins")
	defer p.end(span)
	digest := sha256.New()
	for _, js := range w.twinSpecs {
		out, err := w.oneShot(js, p, span)
		if err != nil {
			return fmt.Errorf("one-shot twin of %s: %w", js.Task, err)
		}
		w.twins = append(w.twins, out)
		w.twinSum = append(w.twinSum, sha256.Sum256(out.report))
		digest.Write(out.report)
	}
	digest.Sum(w.passSum[:0])
	return nil
}

// oneShot runs a spec's twin the way `vcrun -graph-file … -report` would.
func (w *serveClosed) oneShot(js jobSpec, p *probe, parent obs.SpanID) (jobOut, error) {
	g, part, err := loadDump(w.dumps[js.Dataset.Name], js.Dataset, p, parent, 0)
	if err != nil {
		return jobOut{}, err
	}
	return runJob(g, part, js, p, parent, 0)
}

func (w *serveClosed) pass(driver int, p *probe, parent obs.SpanID) (passOut, error) {
	var out passOut
	for i := range w.specs {
		idx := (driver + i) % len(w.specs)
		sp := w.specs[idx]
		sp.Tenant = fmt.Sprintf("t%d", driver)
		if err := w.runJob(idx, sp, driver, p, parent); err != nil {
			return passOut{}, fmt.Errorf("%s/%s: %w", sp.Tenant, sp.Task, err)
		}
		out.msgs += w.twins[idx].msgs
	}
	// Every report equalled its twin, so the pass's bytes are the twins'.
	out.sum = w.passSum
	return out, nil
}

// runJob is one closed-loop request: POST, poll until the job ends, GET the
// report, and hold its bytes to the twin's.
func (w *serveClosed) runJob(idx int, sp serve.JobSpec, track int, p *probe, parent obs.SpanID) error {
	jobSpan := p.begin(parent, track, "bench", "job")
	defer p.end(jobSpan)
	body, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	var view struct {
		ID     string         `json:"id"`
		State  serve.JobState `json:"state"`
		Reason string         `json:"reason"`
	}
	t0 := time.Now()
	span := p.begin(jobSpan, track, "serve", "submit")
	code, raw, err := w.do(http.MethodPost, "/v1/jobs", body)
	p.end(span)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("POST /v1/jobs: status %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		return err
	}
	submitted := time.Now()
	left := submitted // when the job was first seen out of the queue
	id, polls := view.ID, 0
	span = p.begin(jobSpan, track, "serve", "queued")
	inQueue := true
	for view.State != serve.JobCompleted {
		if view.State == serve.JobFailed || view.State == serve.JobRejected {
			p.end(span)
			return fmt.Errorf("job %s %s: %s", id, view.State, view.Reason)
		}
		if inQueue && view.State != serve.JobQueued {
			inQueue, left = false, time.Now()
			p.end(span)
			span = p.begin(jobSpan, track, "serve", "running")
		}
		time.Sleep(pollEvery)
		code, raw, err = w.do(http.MethodGet, "/v1/jobs/"+id, nil)
		polls++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET job: status %d: %s", code, raw)
		}
		if err == nil {
			err = json.Unmarshal(raw, &view)
		}
		if err != nil {
			p.end(span)
			return err
		}
	}
	if inQueue {
		// Completed between two polls: it was never seen running, but every
		// job records the same spans.
		left = time.Now()
		p.end(span)
		span = p.begin(jobSpan, track, "serve", "running")
	}
	p.end(span)
	polled := time.Now()
	span = p.begin(jobSpan, track, "serve", "fetch-report")
	code, raw, err = w.do(http.MethodGet, "/v1/jobs/"+id+"/report", nil)
	p.end(span)
	done := time.Now()
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET report: status %d: %s", code, raw)
	}
	span = p.begin(jobSpan, track, "bench", "verify")
	same := sha256.Sum256(raw) == w.twinSum[idx]
	p.end(span)
	if !same {
		return fmt.Errorf("job %s: report differs from the in-process one-shot report", id)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cold[idx] {
		// The first job of a model key trains the model inside its POST:
		// set-up, not steady state.
		delete(w.cold, idx)
		return nil
	}
	w.jobs = append(w.jobs, jobTiming{
		spec: idx, polls: polls, done: done,
		submit: submitted.Sub(t0).Seconds(), queued: left.Sub(submitted).Seconds(),
		wall: done.Sub(t0).Seconds(), fetch: done.Sub(polled).Seconds(),
	})
	return nil
}

func (w *serveClosed) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// checkOracles holds the twins' task outputs to internal/ref; the service's
// own bytes were already held to the twins' in every pass.
func (w *serveClosed) checkOracles() error {
	for i, js := range w.twinSpecs {
		g, err := graph.LoadBinaryFile(w.dumps[js.Dataset.Name])
		if err != nil {
			return err
		}
		if err := checkTaskOutputs(g, js, w.twins[i].job); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveClosed) exactCounts(m map[string]float64) {
	m["graph.load_bytes"] = float64(w.dumpsLen)
	jobCounts(w.twins, m)
}

// extras times each spec's one-shot twin, trains each model key the way the
// service does on a cold key, and reads the service's own counters.
func (w *serveClosed) extras(p *probe, parent obs.SpanID, _ float64) error {
	for _, js := range w.twinSpecs {
		var walls []float64
		for i := 0; i < 3; i++ {
			span := p.begin(parent, 0, "bench", "one-shot-twin")
			t0 := time.Now()
			_, err := w.oneShot(js, nil, 0)
			walls = append(walls, time.Since(t0).Seconds())
			p.end(span)
			if err != nil {
				return err
			}
		}
		w.twinWall = append(w.twinWall, median(walls))

		span := p.begin(parent, 0, "core", "train")
		t0 := time.Now()
		model, err := w.train(js)
		w.trainS += time.Since(t0).Seconds() / float64(len(w.specs))
		p.end(span)
		if err != nil {
			return err
		}
		span = p.begin(parent, 0, "core", "schedule")
		t0 = time.Now()
		_, err = model.Schedule(js.Workload)
		w.scheduleS += time.Since(t0).Seconds() / float64(len(w.specs))
		p.end(span)
		if err != nil {
			return err
		}
	}

	code, raw, err := w.do(http.MethodGet, "/metrics.json", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /metrics.json: status %d: %v", code, err)
	}
	var snap []obs.MetricSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return err
	}
	w.counters = map[string]float64{}
	for _, ms := range snap {
		w.counters[ms.Name] += ms.Value
	}
	return nil
}

// train mirrors the service's unexported lazy training of one model key:
// fresh jobs with a nominal workload far above the 2^1..2^4 units training
// consumes, under the cost configuration production jobs run with, and the
// service's default exponent and seed.
func (w *serveClosed) train(js jobSpec) (*core.Model, error) {
	g, part, err := loadDump(w.dumps[js.Dataset.Name], js.Dataset, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	all := make([]graph.VertexID, g.NumVertices())
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	const seed = 7
	mk := func() tasks.Job {
		switch js.Task {
		case "MSSP":
			job, _ := tasks.NewMSSP(g, part, tasks.MSSPConfig{Sources: all, Seed: seed})
			return job
		case "BKHS":
			return tasks.NewBKHS(g, part, tasks.BKHSConfig{Sources: all, K: js.K, Seed: seed})
		}
		return tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 1 << 20, Seed: seed})
	}
	return core.Train(mk, costConfig(js.Dataset), core.TrainConfig{MaxExponent: 4, Seed: seed})
}

func (w *serveClosed) layerMetrics(_ *spanSet, _ int, m map[string]float64) {
	m["core.train_s"] = w.trainS
	m["core.schedule_s"] = w.scheduleS

	var walls, submits, queues, fetches []float64
	var polls float64
	first, last := time.Time{}, time.Time{}
	served := make([][]float64, len(w.specs)) // job wall minus queue wait, per spec
	for _, j := range w.jobs {
		walls = append(walls, j.wall)
		submits = append(submits, j.submit)
		queues = append(queues, j.queued)
		fetches = append(fetches, j.fetch)
		polls += float64(j.polls)
		served[j.spec] = append(served[j.spec], j.wall-j.queued)
		if first.IsZero() || j.done.Before(first) {
			first = j.done
		}
		if j.done.After(last) {
			last = j.done
		}
	}
	n := float64(len(w.jobs))
	m["serve.job_wall_s_p50"] = median(walls)
	// The name says p95; with fewer than 200 jobs the highest percentile
	// that still has ten samples beyond it is lower, and is what is reported.
	m["serve.job_wall_s_p95"] = percentile(walls, min(95, tailPercentile(len(walls))))
	m["serve.submit_s_p50"] = median(submits)
	m["serve.queue_wait_s_p50"] = median(queues)
	m["serve.report_fetch_s_p50"] = median(fetches)
	m["serve.jobs_per_s"] = ratio(n-1, last.Sub(first).Seconds())
	m["serve.poll_requests"] = ratio(polls, n)

	submitted := w.counters["serve_jobs_submitted_total"]
	m["serve.jobs_admitted"] = ratio(w.counters["serve_jobs_admitted_total"], submitted)
	m["serve.jobs_queued"] = ratio(w.counters["serve_jobs_queued_total"], submitted)
	m["serve.jobs_rejected"] = ratio(w.counters["serve_jobs_rejected_total"], submitted)
	m["serve.jobs_shrunk"] = ratio(w.counters["serve_jobs_shrunk_total"], submitted)
	m["serve.models_trained"] = w.counters["serve_models_trained_total"]
	m["serve.model_refits"] = w.counters["serve_model_refits_total"]
	var servedS, twinS float64
	for i := range w.twinWall {
		servedS += median(served[i])
		twinS += w.twinWall[i]
	}
	m["serve.overhead_ratio"] = ratio(servedS, twinS)
}

func (w *serveClosed) close() {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Wait()
	}
}
