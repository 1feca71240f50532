package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// testSpec is the canonical small job used throughout: BPPR on the
// smallest replica, light workload, so model training plus execution stays
// in test-suite time.
func testSpec() JobSpec {
	return JobSpec{Task: "BPPR", Dataset: "Web-St", Workload: 8, Batches: 2, Seed: 7}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.TrainExponent == 0 {
		cfg.TrainExponent = 3 // three training runs: fast and still fittable
	}
	return NewServer(cfg)
}

// waitState polls until the job leaves the active states or the deadline
// passes; jobs are asynchronous but finish in well under a second.
func waitState(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		switch v.State {
		case JobCompleted, JobFailed, JobRejected:
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	v, _ := s.Get(id)
	t.Fatalf("job %s stuck in state %s", id, v.State)
	return JobView{}
}

// oneShotReport replicates cmd/vcrun's construction line for line and
// returns the report bytes the CLI would have written — the byte-identity
// oracle for the service's /report endpoint.
func oneShotReport(t *testing.T, sp JobSpec, cluster sim.ClusterProfile, system sim.SystemProfile) []byte {
	t.Helper()
	d, err := graph.Dataset(sp.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Load()
	part := graph.HashPartition(g.NumVertices(), cluster.Machines)
	statScale := sp.Scale
	if statScale == 0 {
		statScale = d.ScaleNodes()
	}
	cfg := sim.JobConfig{
		Cluster:              cluster,
		System:               system,
		StatScale:            statScale,
		NodeScale:            d.ScaleNodes(),
		GraphBytesPerMachine: d.PaperBytesPerMachine(cluster.Machines),
	}
	async := system.Async == sim.FullAsync
	var job tasks.Job
	switch sp.Task {
	case "BPPR":
		job = tasks.NewBPPR(g, part, tasks.BPPRConfig{
			WalksPerNode: sp.Workload, Mirror: system.Mirror, Async: async, Seed: sp.Seed,
		})
	case "MSSP":
		job, err = tasks.NewMSSP(g, part, tasks.MSSPConfig{
			Sources: tasks.FirstSources(g.NumVertices(), sp.Workload), Mirror: system.Mirror,
			Async: async, Seed: sp.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
	case "BKHS":
		job = tasks.NewBKHS(g, part, tasks.BKHSConfig{
			Sources: tasks.FirstSources(g.NumVertices(), sp.Workload), K: sp.K,
			Mirror: system.Mirror, Async: async, Seed: sp.Seed,
		})
	default:
		t.Fatalf("unknown task %q", sp.Task)
	}
	registry := obs.NewRegistry()
	collector := obs.NewCollector(obs.CollectorOptions{Registry: registry})
	cfgTask := cfg
	cfgTask.Task = job.MemModel()
	cfgTask.Observer = collector
	run := sim.NewRun(cfgTask)
	for i, bw := range batch.Equal(job.TotalWorkload(), sp.Batches) {
		if run.Overloaded() || bw <= 0 {
			continue
		}
		run.BeginBatch()
		residual, err := job.RunBatch(run, bw, i)
		if err != nil {
			t.Fatal(err)
		}
		run.AddResidual(residual)
	}
	res := run.Result()
	rep := collector.Report(obs.RunMeta{
		Task: sp.Task, Dataset: d.Name, System: system.Name, Cluster: cluster.Name,
		Machines: cluster.Machines, Workload: job.TotalWorkload(), Batches: sp.Batches,
		Seed: sp.Seed, StatScale: statScale,
	}, res)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAdmitQueueComplete is the e2e contract from the issue: with one
// worker slot, two concurrent submissions produce one admitted and one
// queued job (visible in metrics and events), both complete, and each
// report is byte-identical to the one-shot vcrun equivalent.
func TestAdmitQueueComplete(t *testing.T) {
	var events bytes.Buffer
	s := newTestServer(t, Config{MaxRunning: 1, Events: &events})
	// Hold the first job in the running state until both submissions have
	// been observed, so the second deterministically queues.
	gate := make(chan struct{})
	var gateOnce sync.Once
	s.hookBeforeRun = func(*Job) {
		gateOnce.Do(func() { <-gate })
	}

	specA := testSpec()
	specB := testSpec()
	specB.Task = "MSSP"
	specB.Workload = 6
	specB.Batches = 1
	va, err := s.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := s.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	if va.State != JobAdmitted && va.State != JobRunning && va.State != JobCompleted {
		t.Fatalf("first job state = %s, want admitted/running", va.State)
	}
	// The second submission can only queue: one slot, and the first job is
	// gated in the running state.
	if vb.State != JobQueued {
		t.Fatalf("second job state = %s, want queued", vb.State)
	}
	if vb.QueuePosition != 1 {
		t.Fatalf("queue position = %d, want 1", vb.QueuePosition)
	}
	close(gate)

	fa := waitState(t, s, va.ID)
	fb := waitState(t, s, vb.ID)
	s.Wait()
	if fa.State != JobCompleted || fb.State != JobCompleted {
		t.Fatalf("final states = %s / %s (reasons %q / %q), want completed",
			fa.State, fb.State, fa.Reason, fb.Reason)
	}
	if fa.Result == nil || fa.Result.Seconds <= 0 {
		t.Fatalf("first job result missing or empty: %+v", fa.Result)
	}

	// Byte-identity against the vcrun-equivalent one-shot run.
	for _, tc := range []struct {
		id string
		sp JobSpec
	}{{va.ID, specA}, {vb.ID, specB}} {
		got, state, ok := s.Report(tc.id)
		if !ok || state != JobCompleted {
			t.Fatalf("report %s: ok=%v state=%s", tc.id, ok, state)
		}
		want := oneShotReport(t, tc.sp, sim.Galaxy8, sim.PregelPlus)
		if !bytes.Equal(got, want) {
			t.Fatalf("report %s differs from one-shot vcrun equivalent:\n got %d bytes\nwant %d bytes", tc.id, len(got), len(want))
		}
	}

	// Lifecycle events: one queued, two admitted, two completed.
	log := events.String()
	for _, want := range []string{
		`"type":"job_submitted"`, `"type":"job_admitted"`,
		`"type":"job_queued"`, `"type":"job_completed"`,
	} {
		if !strings.Contains(log, want) {
			t.Fatalf("event log missing %s:\n%s", want, log)
		}
	}

	// Metrics: the queue event and completions are visible.
	names := map[string]bool{}
	for _, m := range s.Registry().Snapshot() {
		names[m.Name] = true
	}
	for _, want := range []string{
		"serve_jobs_queued_total", "serve_jobs_admitted_total",
		"serve_jobs_completed_total", "serve_mem_budget_bytes",
	} {
		if !names[want] {
			t.Fatalf("metrics missing %s: %v", want, names)
		}
	}
	if err := s.EventErr(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetQueues is the issue's e2e shape: a budget sized for exactly one
// job (plenty of worker slots) forces the second concurrent submission to
// queue on memory, and both still complete with correct reports.
func TestBudgetQueues(t *testing.T) {
	// Probe the trained model for the job's predicted peak; training is
	// deterministic, so a second server fits identical curves.
	probe := newTestServer(t, Config{})
	sp := testSpec()
	snap, err := probe.store.Get(sp.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := probe.modelFor(sp, snap, snap.Spec.ScaleNodes())
	if err != nil {
		t.Fatal(err)
	}
	predicted := predictPeak(entry.model, batch.Equal(sp.Workload, sp.Batches))
	if predicted <= 0 {
		t.Fatalf("predicted peak = %g", predicted)
	}

	var events bytes.Buffer
	s := newTestServer(t, Config{MaxRunning: 8, BudgetBytes: 1.5 * predicted, Events: &events})
	gate := make(chan struct{})
	var gateOnce sync.Once
	s.hookBeforeRun = func(*Job) { gateOnce.Do(func() { <-gate }) }

	va, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if va.State != JobAdmitted && va.State != JobRunning {
		t.Fatalf("first job state = %s, want admitted", va.State)
	}
	if va.Shrunk || vb.Shrunk {
		t.Fatalf("jobs shrunk under a budget that fits one (%v/%v)", va.Shrunk, vb.Shrunk)
	}
	// Eight slots are free, so only the memory reservation can queue it.
	if vb.State != JobQueued {
		t.Fatalf("second job state = %s, want queued on budget", vb.State)
	}
	close(gate)
	fa := waitState(t, s, va.ID)
	fb := waitState(t, s, vb.ID)
	s.Wait()
	if fa.State != JobCompleted || fb.State != JobCompleted {
		t.Fatalf("final states %s/%s", fa.State, fb.State)
	}
	want := oneShotReport(t, sp, sim.Galaxy8, sim.PregelPlus)
	for _, id := range []string{va.ID, vb.ID} {
		got, _, _ := s.Report(id)
		if !bytes.Equal(got, want) {
			t.Fatalf("report %s differs from one-shot equivalent", id)
		}
	}
	if !strings.Contains(events.String(), `"type":"job_queued"`) {
		t.Fatalf("event log missing job_queued:\n%s", events.String())
	}
}

// TestRejectInfeasible: a budget no job can fit rejects at submission with
// a reason, never running anything.
func TestRejectInfeasible(t *testing.T) {
	s := newTestServer(t, Config{BudgetBytes: 1}) // one byte: nothing fits
	v, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.State != JobRejected {
		t.Fatalf("state = %s, want rejected", v.State)
	}
	if !strings.Contains(v.Reason, "infeasible") {
		t.Fatalf("reason = %q, want infeasible", v.Reason)
	}
	s.Wait()
	if c := s.Registry().Counter("serve_jobs_rejected_total",
		obs.L("tenant", "default"), obs.L("task", "BPPR"), obs.L("dataset", "Web-St")).Value(); c != 1 {
		t.Fatalf("rejected counter = %d, want 1", c)
	}
}

// TestQueueFullRejects: with zero effective capacity consumed by a running
// job and a tiny queue, the overflow submission is rejected.
func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1, QueueCap: 1})
	gate := make(chan struct{})
	s.hookBeforeRun = func(*Job) { <-gate }
	if _, err := s.Submit(testSpec()); err != nil { // occupies the gated slot
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec()); err != nil { // fills the queue
		t.Fatal(err)
	}
	v, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.State != JobRejected || !strings.Contains(v.Reason, "queue full") {
		t.Fatalf("state = %s reason = %q, want rejected/queue full", v.State, v.Reason)
	}
	close(gate)
	s.Wait()
}

// TestShrunkPlan: a budget below the requested plan's prediction but above
// small-batch predictions makes admission re-batch via Model.Schedule, and
// the job still completes.
func TestShrunkPlan(t *testing.T) {
	// Train a throwaway server to read the fitted model, then size the
	// budget between the one-batch prediction for W=64 and the W=4
	// prediction. Training is deterministic, so the second server fits the
	// same curves.
	probe := newTestServer(t, Config{})
	sp := testSpec()
	sp.Workload = 64
	sp.Batches = 1
	snap, err := probe.store.Get(sp.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := probe.modelFor(sp, snap, snap.Spec.ScaleNodes())
	if err != nil {
		t.Fatal(err)
	}
	full := predictPeak(entry.model, batch.Schedule{64})
	small := entry.model.PredictedMemory(0, 4)
	if small >= full {
		t.Skipf("model not monotone enough to construct a shrink budget (full %.0f, small %.0f)", full, small)
	}
	budget := (full + small) / 2

	s := newTestServer(t, Config{BudgetBytes: budget})
	v, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if v.State == JobRejected {
		t.Fatalf("job rejected (%s), want shrunk admission", v.Reason)
	}
	if !v.Shrunk {
		t.Fatalf("job not shrunk: plan %v, predicted %d <= budget %.0f", v.PlannedBatches, v.PredictedPeakBytes, budget)
	}
	if got := batch.Schedule(v.PlannedBatches).Total(); got != 64 {
		t.Fatalf("shrunk plan total = %d, want 64", got)
	}
	if float64(v.PredictedPeakBytes) > budget {
		t.Fatalf("shrunk prediction %d still above budget %.0f", v.PredictedPeakBytes, budget)
	}
	final := waitState(t, s, v.ID)
	s.Wait()
	if final.State != JobCompleted {
		t.Fatalf("final state = %s (%s), want completed", final.State, final.Reason)
	}
	if c := s.Registry().Counter("serve_jobs_shrunk_total",
		obs.L("tenant", "default"), obs.L("task", "BPPR"), obs.L("dataset", "Web-St")).Value(); c != 1 {
		t.Fatalf("shrunk counter = %d, want 1", c)
	}
}

// TestSubmitValidation rejects malformed specs before any state changes.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	bad := []JobSpec{
		{Task: "PageRank", Dataset: "Web-St", Workload: 8},
		{Task: "BPPR", Dataset: "NoSuch", Workload: 8},
		{Task: "BPPR", Dataset: "Web-St", Workload: 0},
		{Task: "BPPR", Dataset: "Web-St", Workload: 8, Batches: -1},
		{Task: "BKHS", Dataset: "Web-St", Workload: 8, K: -2},
		{Task: "BKHS", Dataset: "Web-St", Workload: 8, K: 300}, // hop counts live in a byte
		{Task: "BPPR", Dataset: "Web-St", Workload: 8, Scale: -1},
	}
	for i, sp := range bad {
		if _, err := s.Submit(sp); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, sp)
		}
	}
	if got := len(s.List()); got != 0 {
		t.Fatalf("invalid specs left %d job records", got)
	}
}

// TestHTTPEndpoints drives the full HTTP surface through httptest: submit,
// poll, report bytes, graphs, metrics, and error statuses.
func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1})
	if err := s.Store().AddGenerated("Web-St"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// Malformed bodies and specs are 400.
	if code, _ := post(`{"task":`); code != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", code)
	}
	if code, _ := post(`{"task":"BPPR","dataset":"Web-St","workload":8,"bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", code)
	}
	if code, _ := post(`{"task":"NoSuch","dataset":"Web-St","workload":8}`); code != http.StatusBadRequest {
		t.Fatalf("bad task: status %d, want 400", code)
	}

	// A valid submission is 202 with a job id.
	code, m := post(`{"tenant":"alice","task":"BPPR","dataset":"Web-St","workload":8,"batches":2,"seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202 (%v)", code, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("submit response missing id: %v", m)
	}

	// Report before completion is 404/409; after completion it is the exact
	// vcrun-equivalent bytes.
	s.Wait()
	v := waitState(t, s, id)
	if v.State != JobCompleted {
		t.Fatalf("job state = %s (%s)", v.State, v.Reason)
	}
	code, body := get("/v1/jobs/" + id + "/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	sp := JobSpec{Tenant: "alice", Task: "BPPR", Dataset: "Web-St", Workload: 8, Batches: 2, Seed: 7}
	if want := oneShotReport(t, sp, sim.Galaxy8, sim.PregelPlus); !bytes.Equal(body, want) {
		t.Fatalf("HTTP report differs from one-shot equivalent (%d vs %d bytes)", len(body), len(want))
	}

	// Trace exports Chrome trace-event JSON.
	code, body = get("/v1/jobs/" + id + "/trace")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"traceEvents"`)) {
		t.Fatalf("trace: status %d body %.80s", code, body)
	}

	// Job listing and lookup.
	code, body = get("/v1/jobs")
	if code != http.StatusOK || !bytes.Contains(body, []byte(id)) {
		t.Fatalf("jobs list: status %d, body %.120s", code, body)
	}
	if code, _ := get("/v1/jobs/job-9999"); code != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", code)
	}
	if code, _ := get("/v1/jobs/job-9999/report"); code != http.StatusNotFound {
		t.Fatalf("missing report: status %d, want 404", code)
	}

	// Graphs listing names the resident snapshot.
	code, body = get("/v1/graphs")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"Web-St"`)) {
		t.Fatalf("graphs: status %d body %.120s", code, body)
	}

	// Health and metrics.
	if code, body := get("/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get("/metrics"); code != http.StatusNotFound {
		t.Fatalf("metrics: status %d, want 404 (/metrics.json is the one exposition)", code)
	}
	code, body = get("/metrics.json")
	if code != http.StatusOK || !bytes.Contains(body, []byte("serve_jobs_submitted_total")) {
		t.Fatalf("metrics.json: status %d", code)
	}
}

// TestHTTPGolden pins the submit response shape: the JSON a client sees for
// a queued job, with the volatile predicted bytes normalized.
func TestHTTPGolden(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1})
	gate := make(chan struct{})
	var gateOnce sync.Once
	s.hookBeforeRun = func(*Job) {
		gateOnce.Do(func() { <-gate })
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First job occupies the slot; the second is the golden queued response.
	for _, body := range []string{
		`{"task":"BPPR","dataset":"Web-St","workload":8,"seed":7}`,
		`{"tenant":"bob","task":"BPPR","dataset":"Web-St","workload":8,"batches":2,"seed":7}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		if body[2:8] != "tenant" {
			continue
		}
		var v struct {
			ID             string  `json:"id"`
			State          string  `json:"state"`
			PlannedBatches []int   `json:"planned_batches"`
			Predicted      float64 `json:"predicted_peak_bytes"`
			QueuePosition  int     `json:"queue_position"`
			Spec           JobSpec `json:"spec"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if v.ID != "job-0002" || v.State != "queued" || v.QueuePosition != 1 {
			t.Fatalf("golden mismatch: %s", raw)
		}
		if got := fmt.Sprint(v.PlannedBatches); got != "[4 4]" {
			t.Fatalf("planned batches = %s, want [4 4]", got)
		}
		if v.Predicted <= 0 {
			t.Fatalf("predicted peak missing: %s", raw)
		}
		if v.Spec.Tenant != "bob" || v.Spec.Batches != 2 || v.Spec.K != 2 {
			t.Fatalf("spec defaults not applied: %s", raw)
		}
	}
	close(gate)
	s.Wait()
}

// TestSubmitRejectsOversizedBody: a POST /v1/jobs body over
// maxSubmitBytes (here a 2 MiB tenant name, which would otherwise become a
// metric label) is a 413 with the JSON error envelope, records no job, and
// leaves the service accepting the next normal submission.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	huge := `{"tenant":"` + strings.Repeat("x", 2<<20) + `","task":"BPPR","dataset":"Web-St","workload":8}`
	code, raw := post(huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%.120s)", code, raw)
	}
	var e errorBody
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("oversized body: want an error envelope, got %.120s (%v)", raw, err)
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("oversized body recorded %d job(s)", len(jobs))
	}

	code, raw = post(`{"tenant":"alice","task":"BPPR","dataset":"Web-St","workload":8,"batches":2,"seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after oversized body: status %d, want 202 (%s)", code, raw)
	}
	s.Wait()
}

// TestConcurrentSubmitAndScrape is the -race stress test: many tenants
// submitting concurrently while /metrics.json and the job list are scraped.
func TestConcurrentSubmitAndScrape(t *testing.T) {
	var events bytes.Buffer
	s := newTestServer(t, Config{MaxRunning: 2, QueueCap: 128, Events: &events})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const submitters = 8
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(
				`{"tenant":"t%d","task":"BPPR","dataset":"Web-St","workload":%d,"seed":%d}`,
				i, 4+i, i+1)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	stop := make(chan struct{})
	for _, path := range []string{"/v1/jobs", "/metrics.json", "/v1/graphs"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(path)
	}
	// Wait for all submissions, then for the jobs, then stop the scrapers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			completed := 0
			for _, v := range s.List() {
				if v.State == JobCompleted {
					completed++
				}
			}
			if completed == submitters {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Error("jobs did not complete in time")
	}()
	<-done
	close(stop)
	wg.Wait()
	s.Wait()

	if err := s.EventErr(); err != nil {
		t.Fatal(err)
	}
	// Per-tenant labels survive: every tenant shows up in the snapshot.
	tenants := map[string]bool{}
	for _, m := range s.Registry().Snapshot() {
		for _, l := range m.Labels {
			if l.Key == "tenant" {
				tenants[l.Value] = true
			}
		}
	}
	for i := 0; i < submitters; i++ {
		if want := fmt.Sprintf("t%d", i); !tenants[want] {
			t.Fatalf("metrics missing tenant %s: %v", want, tenants)
		}
	}
}

// TestStoreLoadDirAndGet covers the snapshot store against real graphgen
// dumps: loading a directory, rejecting corruption, and the
// generate-on-demand fallback.
func TestStoreLoadDirAndGet(t *testing.T) {
	dir := t.TempDir()
	d, err := graph.Dataset("Web-St")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, d.Load()); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir+"/Web-St.bin", buf.Bytes())
	writeFile(t, dir+"/README.txt", []byte("not a graph"))
	writeFile(t, dir+"/NotADataset.bin", []byte("ignored: unknown name"))

	st := NewStore()
	n, err := st.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d snapshots, want 1", n)
	}
	infos := st.List()
	if len(infos) != 1 || infos[0].Name != "Web-St" || infos[0].Source != "file" {
		t.Fatalf("list = %+v", infos)
	}

	// Get falls back to generation for other datasets.
	snap, err := st.Get("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Source != "generated" {
		t.Fatalf("fallback source = %s", snap.Source)
	}

	// A corrupt dump fails the whole directory load.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)-3] ^= 0x40
	dir2 := t.TempDir()
	writeFile(t, dir2+"/Web-St.bin", bad)
	if _, err := NewStore().LoadDir(dir2); err == nil {
		t.Fatal("corrupt dump accepted")
	}

	// So does a dataset's dump saved under another dataset's name: its
	// vertex count is not that dataset's.
	dir3 := t.TempDir()
	writeFile(t, dir3+"/DBLP.bin", buf.Bytes())
	if _, err := NewStore().LoadDir(dir3); err == nil || !strings.Contains(err.Error(), "not a graphgen dump of this dataset") {
		t.Fatalf("Web-St dump loaded as DBLP: %v", err)
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNewServerRejectsConfigItCannotRun checks that NewServer panics, naming
// the field, on each Config value no job could run under — before, each
// built a server that wedged or failed every job — and that the zero Config
// still means every default.
func TestNewServerRejectsConfigItCannotRun(t *testing.T) {
	cases := []struct {
		field, value string
		cfg          Config
	}{
		{"MaxRunning", "-1", Config{MaxRunning: -1}},
		{"QueueCap", "-1", Config{QueueCap: -1}},
		{"BudgetBytes", "-1", Config{BudgetBytes: -1}},
		{"TrainExponent", "1", Config{TrainExponent: 1}},
		{"TrainExponent", "2", Config{TrainExponent: 2}},
		{"Tolerance", "-0.1", Config{Tolerance: -0.1}},
	}
	for _, c := range cases {
		t.Run(c.field+"="+c.value, func(t *testing.T) {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("NewServer with %s=%s did not panic", c.field, c.value)
				}
				if msg := fmt.Sprint(p); !strings.Contains(msg, "Config."+c.field) {
					t.Fatalf("panic %q does not name Config.%s", msg, c.field)
				}
			}()
			NewServer(c.cfg)
		})
	}
	s := NewServer(Config{})
	if s.maxRun != 2 || s.queueCap != 64 || s.trainExp != 4 || s.tolerance != 0.15 || s.seed != 7 || !(s.budget > 0) {
		t.Fatalf("zero Config: maxRun %d queueCap %d trainExp %d tolerance %g seed %d budget %g, want the defaults",
			s.maxRun, s.queueCap, s.trainExp, s.tolerance, s.seed, s.budget)
	}
}
