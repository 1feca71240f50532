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
	if sp.Batches == 0 {
		sp.Batches = 1
	}
	if sp.K == 0 {
		sp.K = 2
	}
	if err := tasks.Validate(sp.Task, sp.Workload, sp.Batches, sp.K); err != nil {
		return err
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
	// dispatched later without re-resolving anything: the task job built
	// from the spec and the cost configuration it runs under.
	snap   *Snapshot
	mentry *modelEntry
	task   tasks.Job
	cfg    sim.JobConfig
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

// jobMeasurement is what a finished run feeds back into the admission
// model: the first batch's peak and residual are a clean (W, M*, M_r*)
// training point, and the job peak scores the admission prediction.
type jobMeasurement struct {
	firstBatchW     int
	firstBatchPeak  float64
	firstBatchResid float64
	jobPeak         float64
}

// executeJob runs the job's plan through the batch runner vcrun uses, with
// a private registry and collector, and assembles the run report.
func (s *Server) executeJob(j *Job) (*obs.RunReport, []byte, *obs.Tracer, jobMeasurement, error) {
	var meas jobMeasurement
	tracer := obs.NewTracer()
	collector := obs.NewCollector(obs.CollectorOptions{Tracer: tracer})
	cfg := j.cfg
	cfg.Observer = collector
	res, err := batch.Run(j.task, cfg, j.Plan, func(o batch.BatchObservation) batch.Schedule {
		if o.Index == 0 {
			meas.firstBatchW, meas.firstBatchPeak, meas.firstBatchResid = o.Workload, o.PeakMemBytes, o.ResidualBytes
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, meas, err
	}
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
		Dataset:   j.snap.Spec.Name,
		System:    s.system.Name,
		Cluster:   s.cluster.Name,
		Machines:  s.cluster.Machines,
		Workload:  j.task.TotalWorkload(),
		Batches:   metaBatches,
		Seed:      j.Spec.Seed,
		StatScale: cfg.StatScale,
	}, res)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, nil, nil, meas, err
	}
	return rep, buf.Bytes(), tracer, meas, nil
}
