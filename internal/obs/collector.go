package obs

import (
	"io"
	"math"
	"strconv"

	"vcmt/internal/sim"
)

// usec converts simulated seconds to the microsecond axis span timestamps
// live on. Rounding (not truncation) keeps adjacent phase spans from
// drifting apart by a microsecond.
func usec(s float64) int64 { return int64(math.Round(s * 1e6)) }

// Collector implements sim.Observer: it listens to a sim.Run's batch and
// round callbacks and accumulates everything the exporters need — per-phase
// totals, per-superstep and per-machine time series, skew, spill events —
// while feeding the metrics registry. Attach it as sim.JobConfig.Observer;
// it keeps every round it observes, so the per-round CSVs (WriteRoundCSV,
// WriteMachineCSV) are written from it after the run.
//
// All collected values derive from the cost model's simulated time and the
// engine's measured counters, so a Collector-produced report is
// byte-identical across runs with the same seed.
type Collector struct {
	reg    *Registry
	events *EventLog

	rounds     []roundRecord
	batches    []batchRecord
	machines   []machineAgg
	overloaded bool
	overflowed bool
	lastSim    float64
	adaptive   *AdaptiveSection
	oocPeak    int64

	// tracer, when non-nil, receives the run's span hierarchy on the
	// simulated-time axis: run → batch → superstep → per-machine phases.
	// The collector is single-goroutine, so span IDs are deterministic.
	tracer       *Tracer
	runSpan      SpanID
	batchSpan    SpanID
	batchStartUS int64
	namedTracks  int
}

type roundRecord struct {
	round, batch int
	obs          sim.RoundObservation
	logicalMsgs  float64
}

type batchRecord struct {
	batch      int
	startRound int // 1-based index into rounds of the first round, 0 if none yet
	startSim   float64
	rounds     int
	seconds    float64
	msgs       float64
	phases     PhaseBreakdown
	oocRead    int64
	oocWrite   int64
}

type machineAgg struct {
	sentLogical    int64
	recvLogical    int64
	remoteLogical  int64
	activeVertices int64
	maxStateEntry  int64
	phases         PhaseBreakdown
	maxMemBytes    float64
}

// CollectorOptions configures a Collector.
type CollectorOptions struct {
	// Registry receives counters and histograms; nil creates a private one.
	Registry *Registry
	// Events, when non-nil, receives the JSONL event log.
	Events io.Writer
	// Tracer, when non-nil, receives the run's span hierarchy (simulated
	// microseconds; export with Tracer.WriteChromeTrace).
	Tracer *Tracer
}

// NewCollector builds a Collector.
func NewCollector(opts CollectorOptions) *Collector {
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	c := &Collector{reg: reg, events: NewEventLog(opts.Events), tracer: opts.Tracer}
	if c.tracer != nil {
		c.tracer.NameProc(0, "simulated cluster")
		c.tracer.NameTrack(0, 0, "supersteps")
		c.runSpan = c.tracer.BeginAt(0, "run", "sim", 0, 0, 0)
	}
	return c
}

// simParent is the innermost open span — the batch if one is open, else
// the run.
func (c *Collector) simParent() SpanID {
	if c.batchSpan != 0 {
		return c.batchSpan
	}
	return c.runSpan
}

// Registry returns the metrics registry the collector feeds.
func (c *Collector) Registry() *Registry { return c.reg }

// EventErr returns the first event-log write error, if any.
func (c *Collector) EventErr() error { return c.events.Err() }

// OnBatchStart implements sim.Observer.
func (c *Collector) OnBatchStart(batch int, simSeconds float64) {
	c.closeBatch()
	c.batches = append(c.batches, batchRecord{batch: batch, startSim: simSeconds})
	c.reg.Counter("sim_batches_total").Inc()
	c.events.Emit(Event{Type: EventBatchStart, SimSeconds: simSeconds, Batch: batch})
	if simSeconds > c.lastSim {
		c.lastSim = simSeconds
	}
	c.batchStartUS = usec(simSeconds)
	c.batchSpan = c.tracer.BeginAt(c.runSpan, "batch", "sim", 0, 0, c.batchStartUS,
		L("batch", strconv.Itoa(batch)))
}

func (c *Collector) closeBatch() {
	if len(c.batches) == 0 {
		return
	}
	b := &c.batches[len(c.batches)-1]
	c.events.Emit(Event{
		Type:       EventBatchEnd,
		SimSeconds: b.startSim + b.seconds,
		Batch:      b.batch,
		Round:      b.rounds,
		Seconds:    b.seconds,
		Msgs:       b.msgs,
	})
	// The batch ends at the latest simulated time seen, not at
	// startSim+seconds: checkpoint and recovery charges land inside the
	// batch's wall but are excluded from its priced seconds.
	c.tracer.EndAt(c.batchSpan, usec(c.lastSim),
		L("rounds", strconv.Itoa(b.rounds)))
	c.batchSpan = 0
}

// OnRound implements sim.Observer.
func (c *Collector) OnRound(o sim.RoundObservation) {
	logical := float64(o.Stats.TotalSentLogical())
	c.rounds = append(c.rounds, roundRecord{
		round: o.Round, batch: o.Batch, obs: o, logicalMsgs: logical,
	})
	ph := PhaseBreakdown{
		ComputeSeconds: o.Result.ComputeSeconds,
		NetSeconds:     o.Result.NetSeconds,
		DiskSeconds:    o.Result.DiskSeconds,
		BarrierSeconds: o.Result.BarrierSeconds,
	}
	if n := len(c.batches); n > 0 {
		b := &c.batches[n-1]
		b.rounds++
		b.seconds += o.Result.Seconds
		b.msgs += logical
		b.phases.Add(ph)
		b.oocRead += o.Stats.OOCReadBytes
		b.oocWrite += o.Stats.OOCWriteBytes
	}
	for len(c.machines) < len(o.Stats.PerMachine) {
		c.machines = append(c.machines, machineAgg{})
	}
	for m, mr := range o.Stats.PerMachine {
		agg := &c.machines[m]
		agg.sentLogical += mr.SentLogical
		agg.recvLogical += mr.RecvLogical
		agg.remoteLogical += mr.RemoteLogical
		agg.activeVertices += mr.ActiveVertices
		if mr.StateEntries > agg.maxStateEntry {
			agg.maxStateEntry = mr.StateEntries
		}
		if m < len(o.Result.PerMachine) {
			mc := o.Result.PerMachine[m]
			agg.phases.Add(PhaseBreakdown{
				ComputeSeconds: mc.ComputeSeconds,
				NetSeconds:     mc.NetSeconds,
				DiskSeconds:    mc.DiskSeconds,
			})
			if mc.MemBytes > agg.maxMemBytes {
				agg.maxMemBytes = mc.MemBytes
			}
		}
		lbl := L("machine", strconv.Itoa(m))
		c.reg.Counter("sim_sent_logical_total", lbl).Add(mr.SentLogical)
		c.reg.Counter("sim_recv_logical_total", lbl).Add(mr.RecvLogical)
	}
	c.reg.Counter("sim_rounds_total").Inc()
	c.reg.Histogram("sim_round_seconds").Observe(o.Result.Seconds)
	c.reg.Histogram("sim_round_msgs").Observe(logical)
	c.reg.Histogram("sim_round_skew_ratio").Observe(o.Result.SkewRatio)
	c.reg.Gauge("sim_seconds").Set(o.CumSeconds)
	c.lastSim = o.CumSeconds

	if c.tracer != nil {
		roundEnd := usec(o.CumSeconds)
		roundStart := roundEnd - usec(o.Result.Seconds)
		if roundStart < c.batchStartUS {
			roundStart = c.batchStartUS
		}
		roundSpan := c.tracer.Add(c.simParent(), "superstep", "sim", 0, 0,
			roundStart, roundEnd-roundStart,
			L("round", strconv.Itoa(o.Round)),
			L("msgs", strconv.FormatFloat(logical, 'g', -1, 64)))
		// Per-machine phase spans: the cost model prices each machine's
		// round as compute then net then disk, so the spans lay out
		// sequentially from the round start on the machine's own track.
		for m := range o.Result.PerMachine {
			if m >= c.namedTracks {
				c.tracer.NameTrack(0, 1+m, "machine "+strconv.Itoa(m))
				c.namedTracks = m + 1
			}
			mc := o.Result.PerMachine[m]
			cur := roundStart
			for _, ph := range []struct {
				name string
				sec  float64
			}{{"compute", mc.ComputeSeconds}, {"net", mc.NetSeconds}, {"disk", mc.DiskSeconds}} {
				d := usec(ph.sec)
				if cur+d > roundEnd {
					d = roundEnd - cur
				}
				if d <= 0 {
					continue
				}
				c.tracer.Add(roundSpan, ph.name, "phase", 0, 1+m, cur, d)
				cur += d
			}
		}
		if b := usec(o.Result.BarrierSeconds); b > 0 {
			start := roundEnd - b
			if start < roundStart {
				start = roundStart
			}
			c.tracer.Add(roundSpan, "barrier", "phase", 0, 0, start, roundEnd-start)
		}
	}

	c.events.Emit(Event{
		Type:       EventSuperstep,
		SimSeconds: o.CumSeconds,
		Batch:      o.Batch,
		Round:      o.Round,
		Msgs:       logical,
		Seconds:    o.Result.Seconds,
		MemRatio:   o.Result.MemRatio,
		SkewRatio:  o.Result.SkewRatio,
	})
	if o.Stats.OOCReadBytes > 0 || o.Stats.OOCWriteBytes > 0 {
		c.reg.Counter("ooc_read_bytes_total").Add(o.Stats.OOCReadBytes)
		c.reg.Counter("ooc_write_bytes_total").Add(o.Stats.OOCWriteBytes)
		if o.Stats.OOCWindowPeakBytes > c.oocPeak {
			c.oocPeak = o.Stats.OOCWindowPeakBytes
		}
		c.reg.Gauge("ooc_window_peak_bytes").Set(float64(c.oocPeak))
		if c.tracer != nil {
			// Partition-file lifecycle spans: the flush (write side) and the
			// load (read side) of this round's partition IO, laid out over
			// the round's disk phase proportionally to their byte shares.
			roundEnd := usec(o.CumSeconds)
			roundStart := roundEnd - usec(o.Result.Seconds)
			if roundStart < c.batchStartUS {
				roundStart = c.batchStartUS
			}
			total := o.Stats.OOCReadBytes + o.Stats.OOCWriteBytes
			diskUS := usec(o.Result.DiskSeconds)
			if diskUS > roundEnd-roundStart {
				diskUS = roundEnd - roundStart
			}
			flushUS := diskUS * o.Stats.OOCWriteBytes / total
			c.tracer.Add(c.simParent(), "ooc flush", "ooc", 0, 0, roundStart, flushUS,
				L("round", strconv.Itoa(o.Round)),
				L("write_bytes", strconv.FormatInt(o.Stats.OOCWriteBytes, 10)))
			c.tracer.Add(c.simParent(), "ooc load", "ooc", 0, 0, roundStart+flushUS, diskUS-flushUS,
				L("round", strconv.Itoa(o.Round)),
				L("read_bytes", strconv.FormatInt(o.Stats.OOCReadBytes, 10)),
				L("window_bytes", strconv.FormatInt(o.Stats.OOCWindowPeakBytes, 10)))
		}
		c.events.Emit(Event{
			Type:           EventOOC,
			SimSeconds:     o.CumSeconds,
			Batch:          o.Batch,
			Round:          o.Round,
			OOCReadBytes:   o.Stats.OOCReadBytes,
			OOCWriteBytes:  o.Stats.OOCWriteBytes,
			OOCWindowBytes: o.Stats.OOCWindowPeakBytes,
		})
	}
	if o.Result.Overflow && !c.overflowed {
		c.overflowed = true
		c.events.Emit(Event{
			Type:       EventOverflow,
			SimSeconds: o.CumSeconds,
			Batch:      o.Batch,
			Round:      o.Round,
			MemRatio:   o.Result.MemRatio,
		})
	}
	if o.Overloaded && !c.overloaded {
		c.overloaded = true
		c.events.Emit(Event{
			Type:       EventOverload,
			SimSeconds: o.CumSeconds,
			Batch:      o.Batch,
			Round:      o.Round,
		})
	}
}

// OnCheckpoint implements sim.RecoveryObserver: it counts checkpoint
// writes and their real snapshot bytes, and logs a checkpoint event.
func (c *Collector) OnCheckpoint(round int, bytes int64, seconds, simSeconds float64) {
	c.reg.Counter("ckpt_writes_total").Inc()
	c.reg.Counter("ckpt_bytes_total").Add(bytes)
	c.reg.Histogram("ckpt_write_seconds").Observe(seconds)
	if simSeconds > c.lastSim {
		c.lastSim = simSeconds
	}
	if c.tracer != nil {
		end := usec(simSeconds)
		start := end - usec(seconds)
		if start < c.batchStartUS {
			start = c.batchStartUS
		}
		c.tracer.Add(c.simParent(), "checkpoint", "ckpt", 0, 0, start, end-start,
			L("round", strconv.Itoa(round)),
			L("bytes", strconv.FormatInt(bytes, 10)))
	}
	c.events.Emit(Event{
		Type:       EventCheckpoint,
		SimSeconds: simSeconds,
		Round:      round,
		Seconds:    seconds,
		CkptBytes:  bytes,
	})
}

// OnRecovery implements sim.RecoveryObserver: it counts recoveries and the
// supersteps they re-execute, and logs a recovery event.
func (c *Collector) OnRecovery(round, roundsLost int, reloadBytes int64, seconds, simSeconds float64) {
	c.reg.Counter("recoveries_total").Inc()
	c.reg.Counter("recovery_rounds_lost_total").Add(int64(roundsLost))
	c.reg.Histogram("recovery_seconds").Observe(seconds)
	if simSeconds > c.lastSim {
		c.lastSim = simSeconds
	}
	if c.tracer != nil {
		end := usec(simSeconds)
		start := end - usec(seconds)
		if start < c.batchStartUS {
			start = c.batchStartUS
		}
		c.tracer.Add(c.simParent(), "recovery", "recovery", 0, 0, start, end-start,
			L("rollback_to", strconv.Itoa(round)),
			L("rounds_lost", strconv.Itoa(roundsLost)),
			L("reload_bytes", strconv.FormatInt(reloadBytes, 10)))
	}
	c.events.Emit(Event{
		Type:       EventRecovery,
		SimSeconds: simSeconds,
		Round:      round,
		Seconds:    seconds,
		CkptBytes:  reloadBytes,
		RoundsLost: roundsLost,
	})
}

// OnCrash implements sim.CrashObserver: an injected crash is marked as a
// zero-duration span on the crashed machine's track and a crash event —
// the annotated start of the gap a recovery span later closes. No registry
// counter: a recovered report must match the fault-free one under the
// recover*-only stripping the differential tests apply.
func (c *Collector) OnCrash(step, machine int, simSeconds float64) {
	if c.tracer != nil {
		track := 0
		if machine >= 0 {
			track = 1 + machine
		}
		c.tracer.Add(c.simParent(), "crash", "fault", 0, track, usec(simSeconds), 0,
			L("step", strconv.Itoa(step)),
			L("machine", strconv.Itoa(machine)))
	}
	c.events.Emit(Event{
		Type:       EventCrash,
		SimSeconds: simSeconds,
		Round:      step,
		Machine:    machine,
	})
}

// Finish closes the trailing batch_end event and the run span. Call once
// after the run; it is idempotent only in the sense that further rounds
// must not follow.
func (c *Collector) Finish() {
	c.closeBatch()
	c.tracer.EndAt(c.runSpan, usec(c.lastSim))
	c.runSpan = 0
}
