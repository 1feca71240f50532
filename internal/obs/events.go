package obs

import (
	"encoding/json"
	"io"
)

// Event is one structured entry in the JSONL event log. A single flat
// struct (rather than a map) keeps field order fixed, so the encoded log is
// byte-stable for deterministic runs. SimSeconds is simulated time from the
// cost model — never wall clock.
type Event struct {
	Seq        int     `json:"seq"`
	Type       string  `json:"type"`
	SimSeconds float64 `json:"t_sim"`
	Batch      int     `json:"batch,omitempty"`
	Round      int     `json:"round,omitempty"`
	Msgs       float64 `json:"msgs,omitempty"`
	Seconds    float64 `json:"seconds,omitempty"`
	MemRatio   float64 `json:"mem_ratio,omitempty"`
	SkewRatio  float64 `json:"skew_ratio,omitempty"`
	CkptBytes  int64   `json:"ckpt_bytes,omitempty"`
	RoundsLost int     `json:"rounds_lost,omitempty"`
	RelError   float64 `json:"rel_error,omitempty"`
	Workload   int     `json:"workload,omitempty"`
	Machine    int     `json:"machine,omitempty"`

	// Service-lifecycle fields (internal/serve). Appended with omitempty so
	// pre-service event logs stay byte-identical.
	Job            string  `json:"job,omitempty"`
	Tenant         string  `json:"tenant,omitempty"`
	Reason         string  `json:"reason,omitempty"`
	PredictedBytes float64 `json:"predicted_bytes,omitempty"`

	// Out-of-core partitioned-execution fields (the ooc event). Appended
	// with omitempty so in-memory event logs stay byte-identical.
	OOCReadBytes   int64 `json:"ooc_read_bytes,omitempty"`
	OOCWriteBytes  int64 `json:"ooc_write_bytes,omitempty"`
	OOCWindowBytes int64 `json:"ooc_window_bytes,omitempty"`
}

// Event types emitted by the Collector.
const (
	EventBatchStart = "batch_start"
	EventBatchEnd   = "batch_end"
	EventSuperstep  = "superstep"
	EventOOC        = "ooc"        // one round's partition-file IO (out-of-core backend)
	EventOverload   = "overload"   // cumulative simulated time crossed the cutoff
	EventOverflow   = "overflow"   // a machine's memory demand passed the overflow ratio
	EventCheckpoint = "checkpoint" // a checkpoint was cut at a superstep barrier
	EventCrash      = "crash"      // an injected crash fired on a machine
	EventRecovery   = "recovery"   // a crash was recovered from the last checkpoint

	// Adaptive-tuner events (closed-loop §5 tuning).
	EventReplan         = "replan"          // the tuner re-fitted the curves and re-planned the tail
	EventGovernorShrink = "governor_shrink" // the safety governor shrank the next batch

	// Job-lifecycle events emitted by the vcserve admission controller
	// (internal/serve). SimSeconds is 0 for these: a long-lived server has
	// no job-spanning simulated clock, and wall time would break the
	// byte-stable log contract.
	EventJobSubmitted = "job_submitted" // a job arrived at POST /v1/jobs
	EventJobAdmitted  = "job_admitted"  // admission reserved memory and started the job
	EventJobQueued    = "job_queued"    // the job waits for budget or a worker slot
	EventJobRejected  = "job_rejected"  // infeasible under the model, or queue full
	EventJobCompleted = "job_completed" // the job finished and released its reservation
	EventJobFailed    = "job_failed"    // the job's engine run returned an error
	EventModelRefit   = "model_refit"   // measured peaks re-fitted the admission curves
)

// EventLog appends events to an io.Writer as JSON Lines. It is not
// concurrency-safe: the simulator drives it from a single goroutine, in
// deterministic order. Errors are sticky; check Err once at the end.
type EventLog struct {
	w   io.Writer
	seq int
	err error
}

// NewEventLog wraps w. A nil writer yields a log that drops everything.
func NewEventLog(w io.Writer) *EventLog { return &EventLog{w: w} }

// Emit assigns the next sequence number and writes one line.
func (l *EventLog) Emit(e Event) {
	if l == nil || l.w == nil || l.err != nil {
		return
	}
	l.seq++
	e.Seq = l.seq
	b, err := json.Marshal(e)
	if err != nil {
		l.err = err
		return
	}
	b = append(b, '\n')
	if _, err := l.w.Write(b); err != nil {
		l.err = err
	}
}

// Err returns the first write or encoding error, if any.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	return l.err
}
