// Package serve is the multi-tenant graph service behind cmd/vcserve: it
// holds named read-only graph snapshots in memory, accepts job submissions
// over HTTP, and runs them concurrently under §5 model-based admission
// control. Every job's predicted peak memory — Model.PredictedMemory over
// its batch plan — is reserved against a shared per-machine budget before
// the job may run; jobs that would overshoot are queued FIFO or have their
// plan shrunk by Model.Schedule, and measured peaks feed back into the
// fitted curves (ObservePoint + Refit), closing the loop server-side the
// way core.RunAdaptive closes it within a run.
package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"vcmt/internal/batch"
	"vcmt/internal/core"
	"vcmt/internal/obs"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// Config configures the service. The cluster and system are service-level:
// every tenant's jobs share one simulated cluster, which is what makes
// admission control meaningful.
type Config struct {
	// Cluster is the simulated cluster profile (default Galaxy-8).
	Cluster sim.ClusterProfile
	// System is the VC-system profile (default Pregel+).
	System sim.SystemProfile
	// BudgetBytes is the admission memory budget per machine at paper
	// scale; 0 uses the cluster's usable capacity p·M (§5 overloading
	// threshold).
	BudgetBytes float64
	// MaxRunning bounds concurrently executing jobs (default 2).
	MaxRunning int
	// QueueCap bounds the admission queue; a full queue rejects (default 64).
	QueueCap int
	// TrainExponent is h for lazy model training, workloads 2^1..2^h
	// (default 4 — lighter than vctune's 5 so a cold key trains fast).
	TrainExponent int
	// Tolerance is the relative prediction error beyond which a completed
	// job's measurement triggers a model re-fit (default 0.15, matching
	// vctune -tolerance).
	Tolerance float64
	// Seed drives training and re-fits (default 7).
	Seed uint64
	// Registry receives service metrics; nil creates a private one.
	Registry *obs.Registry
	// Events, when non-nil, receives the JSONL job-lifecycle event log.
	Events io.Writer
	// Store provides the graph snapshots; nil creates an empty store
	// (snapshots are then generated on first use).
	Store *Store
}

// modelEntry is one lazily trained admission model. The once gates
// training (outside the server mutex — training runs real simulations);
// mu guards reads and re-fits of the fitted curves afterwards.
type modelEntry struct {
	once   sync.Once
	mu     sync.Mutex
	model  *core.Model
	err    error
	refits int
}

// maxRefits caps feedback re-fits per model so one badly-conditioned
// workload cannot keep churning the curves forever.
const maxRefits = 16

// Server is the service state. Exported behaviour is Submit / Get / List
// plus the HTTP handler in handlers.go.
type Server struct {
	store     *Store
	cluster   sim.ClusterProfile
	system    sim.SystemProfile
	budget    float64
	maxRun    int
	queueCap  int
	trainExp  int
	tolerance float64
	seed      uint64
	registry  *obs.Registry

	evmu   sync.Mutex
	events *obs.EventLog

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order, for List
	queue    []*Job // FIFO admission queue
	running  int
	reserved float64
	nextID   int
	models   map[string]*modelEntry

	wg sync.WaitGroup

	// hookBeforeRun, when set before any Submit, runs at the start of every
	// job's goroutine — tests use it to hold jobs in the running state so
	// queue/reject decisions become deterministic.
	hookBeforeRun func(*Job)
}

// NewServer builds a server from cfg, a zero field meaning its default. It
// panics, naming the field, on values no job could run under: MaxRunning or
// QueueCap below 1, BudgetBytes below 0, TrainExponent below 3 (the model
// fits workloads 2^1..2^3 at least) or Tolerance not above 0.
func NewServer(cfg Config) *Server {
	if cfg.Cluster.Name == "" {
		cfg.Cluster = sim.Galaxy8
	}
	if cfg.System.Name == "" {
		cfg.System = sim.PregelPlus
	}
	if cfg.BudgetBytes == 0 {
		cfg.BudgetBytes = cfg.Cluster.UsableMemBytes()
	}
	if cfg.MaxRunning == 0 {
		cfg.MaxRunning = 2
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.TrainExponent == 0 {
		cfg.TrainExponent = 4
	}
	if cfg.Tolerance == 0 {
		cfg.Tolerance = 0.15
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	switch {
	case cfg.MaxRunning < 1:
		panic(fmt.Sprintf("serve: Config.MaxRunning must be >= 1, got %d", cfg.MaxRunning))
	case cfg.QueueCap < 1:
		panic(fmt.Sprintf("serve: Config.QueueCap must be >= 1, got %d", cfg.QueueCap))
	case !(cfg.BudgetBytes >= 0):
		panic(fmt.Sprintf("serve: Config.BudgetBytes must be >= 0, got %g", cfg.BudgetBytes))
	case cfg.TrainExponent < 3:
		panic(fmt.Sprintf("serve: Config.TrainExponent must be >= 3, got %d", cfg.TrainExponent))
	case !(cfg.Tolerance > 0):
		panic(fmt.Sprintf("serve: Config.Tolerance must be > 0, got %g", cfg.Tolerance))
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Store == nil {
		cfg.Store = NewStore()
	}
	s := &Server{
		store:     cfg.Store,
		cluster:   cfg.Cluster,
		system:    cfg.System,
		budget:    cfg.BudgetBytes,
		maxRun:    cfg.MaxRunning,
		queueCap:  cfg.QueueCap,
		trainExp:  cfg.TrainExponent,
		tolerance: cfg.Tolerance,
		seed:      cfg.Seed,
		registry:  cfg.Registry,
		events:    obs.NewEventLog(cfg.Events),
		jobs:      make(map[string]*Job),
		models:    make(map[string]*modelEntry),
	}
	s.registry.Gauge("serve_mem_budget_bytes").Set(s.budget)
	return s
}

// event serializes lifecycle emissions: obs.EventLog is single-goroutine
// by contract, and jobs complete concurrently.
func (s *Server) event(e obs.Event) {
	s.evmu.Lock()
	defer s.evmu.Unlock()
	s.events.Emit(e)
}

// EventErr surfaces the event log's sticky error (for shutdown checks).
func (s *Server) EventErr() error {
	s.evmu.Lock()
	defer s.evmu.Unlock()
	return s.events.Err()
}

func (s *Server) jobLabels(sp JobSpec) []obs.Label {
	return []obs.Label{
		obs.L("tenant", sp.Tenant), obs.L("task", sp.Task), obs.L("dataset", sp.Dataset),
	}
}

// updateGaugesLocked refreshes the occupancy gauges; call with s.mu held.
func (s *Server) updateGaugesLocked() {
	s.registry.Gauge("serve_jobs_running").Set(float64(s.running))
	s.registry.Gauge("serve_queue_depth").Set(float64(len(s.queue)))
	s.registry.Gauge("serve_mem_reserved_bytes").Set(s.reserved)
}

// modelKey identifies one admission model: curves depend on the task, the
// dataset replica, the stat scale, and (for BKHS) the hop radius.
func modelKey(sp JobSpec, statScale float64) string {
	key := fmt.Sprintf("%s|%s|%g", sp.Task, sp.Dataset, statScale)
	if sp.Task == "BKHS" {
		key = fmt.Sprintf("%s|k=%d", key, sp.K)
	}
	return key
}

// modelFor returns the lazily trained admission model for the spec's key,
// training it on first use on vctune's training jobs (core.TrainingJobs)
// under the exact cost configuration production jobs will run with.
func (s *Server) modelFor(sp JobSpec, snap *Snapshot, statScale float64) (*modelEntry, error) {
	key := modelKey(sp, statScale)
	s.mu.Lock()
	entry, ok := s.models[key]
	if !ok {
		entry = &modelEntry{}
		s.models[key] = entry
	}
	s.mu.Unlock()

	entry.once.Do(func() {
		entry.model, entry.err = s.trainModel(sp, snap, statScale)
		if entry.err == nil {
			s.registry.Counter("serve_models_trained_total").Inc()
			s.event(obs.Event{
				Type:     obs.EventModelRefit, // trained == fit number zero
				Tenant:   sp.Tenant,
				Reason:   "trained " + key,
				Workload: 1 << s.trainExp,
			})
		}
	})
	if entry.err != nil {
		return nil, fmt.Errorf("serve: training admission model %s: %w", key, entry.err)
	}
	return entry, nil
}

func (s *Server) trainModel(sp JobSpec, snap *Snapshot, statScale float64) (*core.Model, error) {
	mk, err := core.TrainingJobs(snap.Graph, snap.Partition(s.cluster.Machines), s.system, sp.Task, sp.K, s.seed)
	if err != nil {
		return nil, err
	}
	cfg := tasks.CostConfig(snap.Spec, s.cluster, s.system, statScale)
	return core.Train(mk, cfg, core.TrainConfig{MaxExponent: s.trainExp, Seed: s.seed})
}

// predictPeak is the admission controller's estimate for a plan: the worst
// PredictedMemory over its batches, residuals accumulating (Eq. 5–6 read
// forward).
func predictPeak(m *core.Model, plan batch.Schedule) float64 {
	peak, done := 0.0, 0
	for _, w := range plan {
		if w <= 0 {
			continue
		}
		if p := m.PredictedMemory(done, w); p > peak {
			peak = p
		}
		done += w
	}
	return peak
}

// Submit validates the spec, plans and prices the job, and either starts
// it, queues it, or records a rejection. The returned view's State
// distinguishes the three; err is non-nil only for malformed specs or
// server-side failures (snapshot load, model training).
func (s *Server) Submit(sp JobSpec) (JobView, error) {
	if err := sp.validate(); err != nil {
		return JobView{}, err
	}
	snap, err := s.store.Get(sp.Dataset)
	if err != nil {
		return JobView{}, err
	}
	task, err := tasks.Build(snap.Graph, snap.Partition(s.cluster.Machines), s.system, tasks.Spec{
		Task: sp.Task, Workload: sp.Workload, K: sp.K, Seed: sp.Seed, Workers: sp.Workers,
	})
	if err != nil {
		return JobView{}, err
	}
	cfg := tasks.CostConfig(snap.Spec, s.cluster, s.system, sp.Scale)
	entry, err := s.modelFor(sp, snap, cfg.StatScale)
	if err != nil {
		return JobView{}, err
	}

	// Plan and price outside s.mu (model reads take the entry mutex).
	effW := task.TotalWorkload()
	plan := batch.Equal(effW, sp.Batches)
	entry.mu.Lock()
	predicted := predictPeak(entry.model, plan)
	shrunk := false
	var rejectReason string
	if predicted > s.budget {
		// The requested plan alone overshoots the budget: let the model
		// re-batch the workload against the service budget (Eq. 5–6 with
		// p·M replaced by the configured budget).
		m2 := *entry.model
		m2.P, m2.MachineMemBytes = 1, s.budget
		sched, serr := m2.Schedule(effW)
		switch {
		case errors.Is(serr, core.ErrInfeasible):
			rejectReason = "infeasible: even a single workload unit exceeds the memory budget"
		case errors.Is(serr, core.ErrDegraded):
			rejectReason = "infeasible: residual memory exhausts the budget before the workload completes"
		case serr != nil:
			rejectReason = "planning failed: " + serr.Error()
		default:
			plan, shrunk = sched, true
			predicted = predictPeak(entry.model, plan)
		}
	}
	entry.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("job-%04d", s.nextID),
		Spec:      sp,
		Plan:      plan,
		Shrunk:    shrunk,
		Predicted: predicted,
		snap:      snap,
		mentry:    entry,
		task:      task,
		cfg:       cfg,
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	labels := s.jobLabels(sp)
	s.registry.Counter("serve_jobs_submitted_total", labels...).Inc()
	s.event(obs.Event{
		Type: obs.EventJobSubmitted, Job: j.ID, Tenant: sp.Tenant,
		Workload: effW, PredictedBytes: predicted,
	})
	if shrunk {
		s.registry.Counter("serve_jobs_shrunk_total", labels...).Inc()
	}
	s.registry.Histogram("serve_job_predicted_peak_bytes",
		obs.L("task", sp.Task), obs.L("dataset", sp.Dataset)).Observe(predicted)

	switch {
	case rejectReason != "":
		j.State, j.Reason = JobRejected, rejectReason
		s.registry.Counter("serve_jobs_rejected_total", labels...).Inc()
		s.event(obs.Event{
			Type: obs.EventJobRejected, Job: j.ID, Tenant: sp.Tenant,
			Reason: rejectReason, PredictedBytes: predicted,
		})
	case s.running < s.maxRun && s.reserved+predicted <= s.budget:
		s.admitLocked(j)
	case len(s.queue) < s.queueCap:
		j.State = JobQueued
		s.queue = append(s.queue, j)
		s.registry.Counter("serve_jobs_queued_total", labels...).Inc()
		s.event(obs.Event{
			Type: obs.EventJobQueued, Job: j.ID, Tenant: sp.Tenant,
			PredictedBytes: predicted,
		})
	default:
		j.State, j.Reason = JobRejected, fmt.Sprintf("queue full (%d waiting)", len(s.queue))
		s.registry.Counter("serve_jobs_rejected_total", labels...).Inc()
		s.event(obs.Event{
			Type: obs.EventJobRejected, Job: j.ID, Tenant: sp.Tenant,
			Reason: "queue full", PredictedBytes: predicted,
		})
	}
	s.updateGaugesLocked()
	return s.viewLocked(j), nil
}

// admitLocked reserves the job's predicted memory and starts it; call with
// s.mu held and the admission check already passed.
func (s *Server) admitLocked(j *Job) {
	j.State = JobAdmitted
	s.running++
	s.reserved += j.Predicted
	s.registry.Counter("serve_jobs_admitted_total", s.jobLabels(j.Spec)...).Inc()
	s.event(obs.Event{
		Type: obs.EventJobAdmitted, Job: j.ID, Tenant: j.Spec.Tenant,
		PredictedBytes: j.Predicted,
	})
	s.wg.Add(1)
	go s.runJob(j)
}

// dispatchLocked admits queued jobs head-first while capacity lasts. FIFO
// without skip-ahead: a large queued job is never starved by small
// late-comers overtaking it.
func (s *Server) dispatchLocked() {
	for len(s.queue) > 0 {
		head := s.queue[0]
		if s.running >= s.maxRun || s.reserved+head.Predicted > s.budget {
			return
		}
		s.queue = s.queue[1:]
		s.admitLocked(head)
	}
}

// runJob executes one admitted job to completion and releases its
// reservation, then feeds the measurement back into the model and lets the
// queue drain into the freed capacity.
func (s *Server) runJob(j *Job) {
	defer s.wg.Done()
	s.mu.Lock()
	j.State = JobRunning
	s.mu.Unlock()
	if s.hookBeforeRun != nil {
		s.hookBeforeRun(j)
	}

	rep, raw, tracer, meas, err := s.executeJob(j)

	s.mu.Lock()
	j.task = nil // its results are never served; a finished job keeps only the report
	s.running--
	s.reserved -= j.Predicted
	labels := s.jobLabels(j.Spec)
	if err != nil {
		j.State, j.Reason = JobFailed, err.Error()
		s.registry.Counter("serve_jobs_failed_total", labels...).Inc()
		s.event(obs.Event{
			Type: obs.EventJobFailed, Job: j.ID, Tenant: j.Spec.Tenant, Reason: err.Error(),
		})
	} else {
		j.State = JobCompleted
		j.Result = &rep.Result
		j.ReportJSON = raw
		j.Tracer = tracer
		s.registry.Counter("serve_jobs_completed_total", labels...).Inc()
		s.registry.Histogram("serve_job_sim_seconds",
			obs.L("task", j.Spec.Task), obs.L("dataset", j.Spec.Dataset)).Observe(rep.Result.Seconds)
		s.event(obs.Event{
			Type: obs.EventJobCompleted, Job: j.ID, Tenant: j.Spec.Tenant,
			Seconds: rep.Result.Seconds, MemRatio: rep.Result.MaxMemRatio,
			PredictedBytes: j.Predicted,
		})
	}
	s.updateGaugesLocked()
	s.dispatchLocked()
	s.mu.Unlock()

	if err == nil {
		s.feedback(j, meas)
	}
}

// feedback scores the admission prediction against the measured peak and,
// when the error exceeds the tolerance, folds the job's first batch back
// into the model as a training point and re-fits — the server-side
// equivalent of the closed-loop tuner's re-plan trigger.
func (s *Server) feedback(j *Job, meas jobMeasurement) {
	if meas.jobPeak <= 0 {
		return
	}
	relErr := (meas.jobPeak - j.Predicted) / meas.jobPeak
	if relErr < 0 {
		relErr = -relErr
	}
	s.registry.Histogram("serve_admission_rel_error",
		obs.L("task", j.Spec.Task), obs.L("dataset", j.Spec.Dataset)).Observe(relErr)
	if relErr <= s.tolerance || meas.firstBatchW <= 0 {
		return
	}
	e := j.mentry
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.refits >= maxRefits {
		return
	}
	e.model.ObservePoint(core.TrainingPoint{
		Workload:         float64(meas.firstBatchW),
		MaxMemBytes:      meas.firstBatchPeak,
		MaxResidualBytes: meas.firstBatchResid,
	})
	if err := e.model.Refit(s.seed + uint64(e.refits) + 1); err != nil {
		return // model keeps its previous fit; nothing to report
	}
	e.refits++
	s.registry.Counter("serve_model_refits_total").Inc()
	s.event(obs.Event{
		Type: obs.EventModelRefit, Job: j.ID, Tenant: j.Spec.Tenant,
		RelError: relErr, Workload: meas.firstBatchW,
	})
}

// Get returns the job view by ID.
func (s *Server) Get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(j), true
}

// List returns every job in submission order.
func (s *Server) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, s.viewLocked(j))
	}
	return out
}

// Report returns the completed job's exact report bytes.
func (s *Server) Report(id string) ([]byte, JobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, "", false
	}
	return j.ReportJSON, j.State, true
}

// Trace returns the completed job's tracer.
func (s *Server) Trace(id string) (*obs.Tracer, JobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, "", false
	}
	return j.Tracer, j.State, true
}

// Registry exposes the service metrics registry (for the HTTP handler and
// embedding callers).
func (s *Server) Registry() *obs.Registry { return s.registry }

// Store exposes the snapshot store.
func (s *Server) Store() *Store { return s.store }

// Wait blocks until every admitted job has finished. Queued jobs admitted
// by the drain are waited on too (dispatchLocked runs before the counted
// goroutine exits, so wg never reaches zero with work still queued —
// unless capacity can never fit the head, which Submit prevents by
// rejecting solo-infeasible jobs).
func (s *Server) Wait() { s.wg.Wait() }
