package serve

import (
	"bytes"
	"fmt"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// JobState is the admission-control state machine:
//
//	submitted ──▶ rejected                       (infeasible / queue full)
//	     │
//	     ├──▶ admitted ──▶ running ──▶ completed
//	     │        ▲                └─▶ failed
//	     └──▶ queued ┘                (engine error)
//
// "submitted" itself is transient — POST /v1/jobs always answers with one
// of queued/admitted/running/rejected.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobAdmitted  JobState = "admitted"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
	JobRejected  JobState = "rejected"
)

// JobSpec is the POST /v1/jobs request body. The system, cluster and
// machine count are service-level configuration — all tenants share one
// simulated cluster, which is the whole point of admission control — so
// the spec carries only the per-job knobs. Field semantics and defaults
// mirror the vcrun flags: a job's run report is byte-identical to
//
//	vcrun -task T -dataset D -workload W -batches B -seed S [-k K] \
//	      [-scale X] -report ...
//
// against a vcrun invocation whose -system/-cluster/-machines match the
// service configuration (provided admission did not shrink the plan).
type JobSpec struct {
	// Tenant labels the submitting user for metrics and the event log.
	Tenant string `json:"tenant,omitempty"`
	// Task is BPPR, MSSP or BKHS.
	Task string `json:"task"`
	// Dataset names the snapshot (Table 1 replica) to run against.
	Dataset string `json:"dataset"`
	// Workload is the replica workload (walks per vertex / source count).
	Workload int `json:"workload"`
	// Batches splits the workload into equal batches (default 1).
	Batches int `json:"batches,omitempty"`
	// K is the BKHS hop radius (default 2).
	K int `json:"k,omitempty"`
	// Scale overrides the stat extrapolation factor (default: the
	// dataset's node scale).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives the task's RNG.
	Seed uint64 `json:"seed"`
	// Workers is the engine worker-pool size (0 = GOMAXPROCS; results are
	// identical for every value).
	Workers int `json:"workers,omitempty"`
}

// validate normalizes defaults and rejects malformed specs.
func (sp *JobSpec) validate() error {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	switch sp.Task {
	case "BPPR", "MSSP", "BKHS":
	default:
		return fmt.Errorf("unknown task %q (want BPPR, MSSP or BKHS)", sp.Task)
	}
	if sp.Workload < 1 {
		return fmt.Errorf("workload must be >= 1, got %d", sp.Workload)
	}
	if sp.Batches == 0 {
		sp.Batches = 1
	}
	if sp.Batches < 1 {
		return fmt.Errorf("batches must be >= 1, got %d", sp.Batches)
	}
	if sp.K == 0 {
		sp.K = 2
	}
	if sp.K < 1 || sp.K > tasks.MaxBKHSHops {
		return fmt.Errorf("k must be in 1..%d, got %d", tasks.MaxBKHSHops, sp.K)
	}
	if sp.Scale < 0 {
		return fmt.Errorf("scale must be >= 0, got %g", sp.Scale)
	}
	if sp.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", sp.Workers)
	}
	if _, err := graph.Dataset(sp.Dataset); err != nil {
		return err
	}
	return nil
}

// Job is one submission's full lifecycle record. Mutable fields are
// guarded by the server mutex.
type Job struct {
	ID   string
	Spec JobSpec

	State  JobState
	Reason string // rejection reason or failure error

	// Plan is the batch schedule the job will run — batch.Equal of the
	// requested batches, or a model-shrunk schedule when the requested
	// plan alone would overshoot the budget.
	Plan   batch.Schedule
	Shrunk bool
	// Predicted is the admission controller's peak-memory prediction for
	// the plan (per machine, paper scale).
	Predicted float64

	// Result fields, set on completion.
	Result     *obs.ResultSummary
	ReportJSON []byte // exact bytes of the run report
	Tracer     *obs.Tracer

	// Execution context captured at submission so a queued job can be
	// dispatched later without re-resolving anything.
	snap   *Snapshot
	mentry *modelEntry
}

// JobView is the JSON representation returned by the job endpoints.
type JobView struct {
	ID                 string             `json:"id"`
	State              JobState           `json:"state"`
	Spec               JobSpec            `json:"spec"`
	PlannedBatches     []int              `json:"planned_batches,omitempty"`
	Shrunk             bool               `json:"shrunk,omitempty"`
	PredictedPeakBytes int64              `json:"predicted_peak_bytes,omitempty"`
	QueuePosition      int                `json:"queue_position,omitempty"` // 1-based; 0 when not queued
	Reason             string             `json:"reason,omitempty"`
	Result             *obs.ResultSummary `json:"result,omitempty"`
}

// view renders the job under the server mutex.
func (s *Server) viewLocked(j *Job) JobView {
	v := JobView{
		ID:                 j.ID,
		State:              j.State,
		Spec:               j.Spec,
		PlannedBatches:     j.Plan,
		Shrunk:             j.Shrunk,
		PredictedPeakBytes: int64(j.Predicted),
		Reason:             j.Reason,
		Result:             j.Result,
	}
	if j.State == JobQueued {
		for i, q := range s.queue {
			if q == j {
				v.QueuePosition = i + 1
				break
			}
		}
	}
	return v
}

// buildJob constructs the task job and its cost configuration exactly as
// vcrun does, so that the resulting report is byte-identical to the
// equivalent one-shot invocation.
func (s *Server) buildJob(sp JobSpec, snap *Snapshot) (tasks.Job, sim.JobConfig, float64, error) {
	d := snap.Spec
	g := snap.Graph
	part := snap.Partition(s.cluster.Machines)
	statScale := sp.Scale
	if statScale == 0 {
		statScale = d.ScaleNodes()
	}
	cfg := sim.JobConfig{
		Cluster:              s.cluster,
		System:               s.system,
		StatScale:            statScale,
		NodeScale:            d.ScaleNodes(),
		GraphBytesPerMachine: d.PaperBytesPerMachine(s.cluster.Machines),
	}
	async := s.system.Async == sim.FullAsync
	var job tasks.Job
	var err error
	switch sp.Task {
	case "BPPR":
		job = tasks.NewBPPR(g, part, tasks.BPPRConfig{
			WalksPerNode: sp.Workload, Mirror: s.system.Mirror, Async: async, Seed: sp.Seed,
			Workers: sp.Workers,
		})
	case "MSSP":
		job, err = tasks.NewMSSP(g, part, tasks.MSSPConfig{
			Sources: tasks.FirstSources(g.NumVertices(), sp.Workload), Mirror: s.system.Mirror,
			Async: async, Seed: sp.Seed, Workers: sp.Workers,
		})
	case "BKHS":
		job = tasks.NewBKHS(g, part, tasks.BKHSConfig{
			Sources: tasks.FirstSources(g.NumVertices(), sp.Workload), K: sp.K,
			Mirror: s.system.Mirror, Async: async, Seed: sp.Seed, Workers: sp.Workers,
		})
	default:
		err = fmt.Errorf("unknown task %q", sp.Task)
	}
	if err != nil {
		return nil, sim.JobConfig{}, 0, err
	}
	return job, cfg, statScale, nil
}

// jobMeasurement is what a finished run feeds back into the admission
// model: the first batch's peak and residual are a clean (W, M*, M_r*)
// training point, and the job peak scores the admission prediction.
type jobMeasurement struct {
	firstBatchW     int
	firstBatchPeak  float64
	firstBatchResid float64
	jobPeak         float64
}

// executeJob runs the job's plan batch-by-batch, mirroring vcrun's loop
// line for line (including the Overloaded/zero-workload skip), and
// assembles the byte-identical run report.
func (s *Server) executeJob(j *Job, snap *Snapshot) (*obs.RunReport, []byte, *obs.Tracer, jobMeasurement, error) {
	var meas jobMeasurement
	job, cfg, statScale, err := s.buildJob(j.Spec, snap)
	if err != nil {
		return nil, nil, nil, meas, err
	}
	cfgTask := cfg
	cfgTask.Task = job.MemModel()
	registry := obs.NewRegistry()
	tracer := obs.NewTracer()
	collector := obs.NewCollector(obs.CollectorOptions{Registry: registry, Tracer: tracer})
	cfgTask.Observer = collector

	run := sim.NewRun(cfgTask)
	for i, bw := range j.Plan {
		if run.Overloaded() || bw <= 0 {
			continue
		}
		run.BeginBatch()
		residual, err := job.RunBatch(run, bw, i)
		if err != nil {
			return nil, nil, nil, meas, err
		}
		run.AddResidual(residual)
		if i == 0 {
			meas.firstBatchW = bw
			meas.firstBatchPeak = run.BatchPeakMemBytes()
			meas.firstBatchResid = run.MaxResidualBytes()
		}
	}
	res := run.Result()
	meas.jobPeak = res.PeakMemBytes

	// Meta mirrors vcrun: Batches is the requested equal-batch count (the
	// -batches flag), except for model-shrunk plans, which have no one-shot
	// equivalent and report their actual batch count.
	metaBatches := j.Spec.Batches
	if j.Shrunk {
		metaBatches = len(j.Plan)
	}
	rep := collector.Report(obs.RunMeta{
		Task:      j.Spec.Task,
		Dataset:   snap.Spec.Name,
		System:    s.system.Name,
		Cluster:   s.cluster.Name,
		Machines:  s.cluster.Machines,
		Workload:  job.TotalWorkload(),
		Batches:   metaBatches,
		Seed:      j.Spec.Seed,
		StatScale: statScale,
	}, res)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, nil, nil, meas, err
	}
	return rep, buf.Bytes(), tracer, meas, nil
}

// effectiveWorkload is the job's TotalWorkload without constructing it:
// source-count tasks clamp the workload to the vertex count, exactly as
// tasks.FirstSources does.
func effectiveWorkload(sp JobSpec, snap *Snapshot) int {
	w := sp.Workload
	if sp.Task != "BPPR" && w > snap.Graph.NumVertices() {
		w = snap.Graph.NumVertices()
	}
	return w
}
