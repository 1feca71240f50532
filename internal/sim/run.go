package sim

// JobConfig configures cost accounting for one multi-processing job.
type JobConfig struct {
	Cluster ClusterProfile
	System  SystemProfile
	Task    TaskMemModel

	// StatScale extrapolates measured message/state counts to paper scale:
	// (paper graph size / replica size) × (paper workload / replica
	// workload). Message volume in all three benchmark tasks is linear in
	// both (walks per node for BPPR, source count for MSSP/BKHS).
	StatScale float64
	// NodeScale extrapolates per-vertex quantities (active-vertex compute)
	// which scale only with the graph, not the workload.
	NodeScale float64
	// GraphBytesPerMachine is the paper-scale static graph footprint per
	// machine before the system's GraphMemFactor (full graph size / K for
	// the default partitioning; the full size in whole-graph access mode).
	GraphBytesPerMachine float64
	// Observer, when non-nil, receives batch and round callbacks: the one
	// per-round hook of a Run, which telemetry (internal/obs) attaches to.
	Observer Observer
}

// Observer receives run lifecycle callbacks alongside the cost accounting —
// the hook the telemetry layer (internal/obs) attaches to. All callbacks
// fire synchronously on the engine's goroutine, in deterministic order.
type Observer interface {
	// OnBatchStart fires when a new batch begins; simSeconds is the
	// simulated time accumulated so far.
	OnBatchStart(batch int, simSeconds float64)
	// OnRound fires after every priced superstep (including Giraph-style
	// sub-steps).
	OnRound(o RoundObservation)
}

// RecoveryObserver is an optional extension of Observer (checked by type
// assertion, so existing observers are unaffected): it receives the
// fault-tolerance callbacks fired by ObserveCheckpoint and ObserveRecovery.
type RecoveryObserver interface {
	// OnCheckpoint fires after a checkpoint write is priced. round is the
	// superstep the checkpoint was cut at, bytes the replica-scale snapshot
	// size, seconds the simulated write cost, simSeconds the cumulative
	// simulated time including it.
	OnCheckpoint(round int, bytes int64, seconds, simSeconds float64)
	// OnRecovery fires after a recovery is priced. round is the superstep
	// recovered to, roundsLost the supersteps that must be re-executed.
	OnRecovery(round, roundsLost int, reloadBytes int64, seconds, simSeconds float64)
}

// CrashObserver is an optional extension of Observer (type-asserted like
// RecoveryObserver): it receives the crash marker fired by ObserveCrash at
// the instant an injected fault kills a machine, before any recovery cost
// is charged.
type CrashObserver interface {
	// OnCrash fires when a machine crashes at the given superstep.
	// machine is -1 when the faulted machine is unknown.
	OnCrash(step, machine int, simSeconds float64)
}

// RoundObservation bundles everything known about one priced superstep.
type RoundObservation struct {
	Round      int // 1-based, over the whole job
	Batch      int // 1-based; 0 before the first BeginBatch
	Stats      RoundStats
	Result     RoundResult
	CumSeconds float64 // simulated seconds including this round
	Overloaded bool    // cumulative time past the cutoff, or overflow
}

// Run accumulates per-round statistics for one job and prices them with the
// cost model. Engines call ObserveRound after every superstep; the batch
// runner calls AddResidual between batches; Result summarizes.
type Run struct {
	cfg JobConfig
	// res holds the run's totals as they accumulate; Result adds the
	// fields derived from them.
	res            JobResult
	batchPeakMem   float64
	residualByMach []int64
	residualTotal  int64
	obs            Observer
}

// NewRun starts cost accounting for one job.
func NewRun(cfg JobConfig) *Run {
	if cfg.StatScale == 0 {
		cfg.StatScale = 1
	}
	if cfg.NodeScale == 0 {
		cfg.NodeScale = 1
	}
	return &Run{cfg: cfg, residualByMach: make([]int64, cfg.Cluster.Machines), obs: cfg.Observer}
}

// Config returns the job configuration.
func (r *Run) Config() JobConfig { return r.cfg }

func (r *Run) residualBytes(machine int) float64 {
	if machine < len(r.residualByMach) {
		return float64(r.residualByMach[machine]) * r.cfg.StatScale * r.cfg.Task.ResidualBytesPerEntry
	}
	return 0
}

// AddResidual records that `entries` residual state entries (replica scale)
// now live on each machine after a finished batch; they are charged against
// memory in every subsequent round (§4.5's residual memory).
func (r *Run) AddResidual(perMachine []int64) {
	for m, e := range perMachine {
		if m < len(r.residualByMach) {
			r.residualByMach[m] += e
		}
	}
	for _, e := range perMachine {
		r.residualTotal += e
	}
}

// ResidualEntries returns the total residual entries recorded so far
// (replica scale).
func (r *Run) ResidualEntries() int64 { return r.residualTotal }

// BeginBatch marks the start of a batch (used for the Batches count).
func (r *Run) BeginBatch() {
	r.res.Batches++
	r.batchPeakMem = 0
	if r.obs != nil {
		r.obs.OnBatchStart(r.res.Batches, r.res.Seconds)
	}
}

// BatchPeakMemBytes returns the worst per-machine memory demand (paper
// scale) observed since the last BeginBatch — the measured M* the adaptive
// tuner compares against Model.PredictedMemory after each batch.
func (r *Run) BatchPeakMemBytes() float64 { return r.batchPeakMem }

// MaxResidualBytes returns the largest per-machine residual memory
// currently recorded (paper scale) — the measured M_r* counterpart of the
// fitted residual curve.
func (r *Run) MaxResidualBytes() float64 {
	var max float64
	for m := range r.residualByMach {
		if b := r.residualBytes(m); b > max {
			max = b
		}
	}
	return max
}

// ObserveRound prices one superstep and accumulates it.
func (r *Run) ObserveRound(rs RoundStats) RoundResult {
	res := r.roundCost(rs)
	t := &r.res
	t.Seconds += res.Seconds
	t.Rounds++
	logical := float64(rs.TotalSentLogical()) * r.cfg.StatScale
	t.TotalLogicalMsgs += logical
	raise(&t.MaxMsgsPerRound, logical)
	raise(&t.PeakMemBytes, res.PeakMemBytes)
	raise(&r.batchPeakMem, res.PeakMemBytes)
	raise(&t.MaxMemRatio, res.MemRatio)
	t.ComputeSeconds += res.ComputeSeconds
	t.BarrierSeconds += res.BarrierSeconds
	t.NetSeconds += res.NetSeconds
	t.NetOveruseSec += res.NetOveruseSec
	t.DiskSeconds += res.DiskSeconds
	raise(&t.MaxDiskUtil, res.DiskUtil)
	t.IOOveruseSec += res.IOOveruseSec
	raise(&t.MaxIOQueueLen, res.IOQueueLen)
	t.WireBytesTotal += res.WireBytes
	raise(&t.MaxSkewRatio, res.SkewRatio)
	t.OOCReadBytes += rs.OOCReadBytes
	t.OOCWriteBytes += rs.OOCWriteBytes
	raise(&t.OOCWindowPeakBytes, rs.OOCWindowPeakBytes)
	t.Overflow = t.Overflow || res.Overflow
	if r.obs != nil {
		r.obs.OnRound(RoundObservation{
			Round:      t.Rounds,
			Batch:      t.Batches,
			Stats:      rs,
			Result:     res,
			CumSeconds: t.Seconds,
			Overloaded: r.Overloaded(),
		})
	}
	return res
}

// raise sets *p to v when v is larger; a NaN v leaves *p as it is.
func raise[T int64 | float64](p *T, v T) {
	if v > *p {
		*p = v
	}
}

// AddSeconds charges extra simulated time outside the superstep loop, e.g.
// the final aggregation phase of whole-graph access mode (Fig. 10).
func (r *Run) AddSeconds(s float64) { r.res.Seconds += s }

// ObserveCheckpoint charges the simulated cost of writing one checkpoint
// of `bytes` replica-scale bytes at the given superstep and returns that
// cost. Engines call it at the barrier, right after the checkpoint hits
// disk.
func (r *Run) ObserveCheckpoint(round int, bytes int64) float64 {
	sec := r.checkpointSeconds(bytes)
	r.res.Seconds += sec
	r.res.CheckpointsWritten++
	r.res.CheckpointBytes += bytes
	r.res.CheckpointSeconds += sec
	if ro, ok := r.obs.(RecoveryObserver); ok {
		ro.OnCheckpoint(round, bytes, sec, r.res.Seconds)
	}
	return sec
}

// ObserveCrash marks an injected crash of machine at the given superstep.
// It charges nothing — the crash itself is free; the price is the recovery
// that follows — so fault-free accounting is untouched.
func (r *Run) ObserveCrash(step, machine int) {
	if co, ok := r.obs.(CrashObserver); ok {
		co.OnCrash(step, machine, r.res.Seconds)
	}
}

// ObserveRecovery charges the simulated cost of one recovery: restart
// overhead, reloading the last checkpoint (reloadBytes, replica scale),
// and re-executing the roundsLost supersteps since it was cut
// (lostSeconds, the simulated time those supersteps originally took).
// round is the superstep recovered to.
func (r *Run) ObserveRecovery(round, roundsLost int, reloadBytes int64, lostSeconds float64) float64 {
	sec := r.recoverySeconds(reloadBytes, lostSeconds)
	r.res.Seconds += sec
	r.res.Recoveries++
	r.res.RoundsLost += roundsLost
	r.res.RecoverySeconds += sec
	if ro, ok := r.obs.(RecoveryObserver); ok {
		ro.OnRecovery(round, roundsLost, reloadBytes, sec, r.res.Seconds)
	}
	return sec
}

// Seconds returns the simulated time accumulated so far.
func (r *Run) Seconds() float64 { return r.res.Seconds }

// Overloaded reports whether the job has blown the cutoff; engines may
// consult it to stop early, as the paper's 6000 s cutoff does.
func (r *Run) Overloaded() bool {
	return r.res.Seconds > DefaultCutoffSeconds || r.res.Overflow
}

// Result summarizes the job: its totals plus the fields derived from them.
func (r *Run) Result() JobResult {
	res := r.res
	res.Overload = r.Overloaded()
	if res.Rounds > 0 {
		res.AvgMsgsPerRound = res.TotalLogicalMsgs / float64(res.Rounds)
		res.WireBytesPerMach = res.WireBytesTotal / float64(r.cfg.Cluster.Machines)
	}
	if r.cfg.Cluster.Cloud {
		sec := res.Seconds
		if res.Overload && sec > DefaultCutoffSeconds {
			// The paper prices overloaded runs at the cutoff and marks the
			// credit figure as a lower bound ('>' in Fig. 7).
			sec = DefaultCutoffSeconds
			res.CreditsLowerBound = true
		}
		res.Credits = sec / 3600 * float64(r.cfg.Cluster.Machines) * r.cfg.Cluster.CreditsPerMachineHour
	}
	return res
}
