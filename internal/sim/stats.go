package sim

// MachineRound holds the statistics one machine measured during one
// superstep (or, for asynchronous engines, one accounting epoch). Counts
// are at replica scale; the Run converts them to paper scale.
//
// "Logical" counts weigh each message by its multiplicity (a counted
// random-walk message carrying 7 walks is 7 logical messages, matching how
// Pregel+ sends one message per walk), while "physical" counts each
// transmitted message once (matching systems that combine same-key
// messages, §4.8).
type MachineRound struct {
	SentLogical    int64
	SentPhysical   int64
	RecvLogical    int64
	RecvPhysical   int64
	RemoteLogical  int64 // sent messages whose destination is another machine
	RemotePhysical int64
	ActiveVertices int64
	StateEntries   int64 // live task-state entries resident on this machine
	Activations    int64 // async engines: vertex activations in this epoch
}

// RoundStats aggregates one superstep across all machines.
type RoundStats struct {
	// PerMachine holds one entry per machine. Its producer hands over a
	// fresh slice every round, which observers may keep.
	PerMachine []MachineRound

	// OOCReadBytes / OOCWriteBytes are the real partition-file volumes the
	// partitioned out-of-core backend measured during this superstep
	// (replica scale, engine-wide, deterministic encoded bytes — not wall
	// clock). OOCWindowPeakBytes is the peak resident window (edge window +
	// inbox) over the superstep. All three are zero for in-memory runs.
	OOCReadBytes       int64
	OOCWriteBytes      int64
	OOCWindowPeakBytes int64

	// CombinedAtSend is never assigned: the engine buffers every send raw
	// and combines only at delivery. The field stays solely because
	// bench/probe.go reads it and bench/ changes in its own PRs; the
	// benchmark's next schema bump removes both.
	CombinedAtSend int64
}

// TotalSentLogical sums logical sends across machines.
func (r RoundStats) TotalSentLogical() int64 {
	var t int64
	for _, m := range r.PerMachine {
		t += m.SentLogical
	}
	return t
}

// TotalSentPhysical sums physical sends across machines.
func (r RoundStats) TotalSentPhysical() int64 {
	var t int64
	for _, m := range r.PerMachine {
		t += m.SentPhysical
	}
	return t
}

// TotalActive sums active vertices across machines.
func (r RoundStats) TotalActive() int64 {
	var t int64
	for _, m := range r.PerMachine {
		t += m.ActiveVertices
	}
	return t
}

// MachineCost is one machine's share of a superstep's cost — the per-phase
// decomposition (compute / network / disk) plus its memory demand. All
// values are paper scale; seconds are pre-thrash (the thrash multiplier is
// applied to the round as a whole).
type MachineCost struct {
	ComputeSeconds float64 // CPU time for message processing + vertex work
	NetSeconds     float64 // wire transfer time for this machine's remote sends
	DiskSeconds    float64 // out-of-core IO time (0 for in-memory systems)
	MemBytes       float64 // peak memory demand (graph + buffers + state + residual)
}

// RoundResult is the cost model's verdict for one superstep.
type RoundResult struct {
	Seconds        float64
	ComputeSeconds float64 // compute phase of the worst machine
	BarrierSeconds float64 // synchronization barrier (0 for full-async)
	PeakMemBytes   float64 // worst machine, paper scale
	MemRatio       float64 // peak / usable capacity
	ThrashFactor   float64 // ≥ 1; >1 when memory-bound
	Overflow       bool    // memory demand beyond physical+swap headroom
	NetSeconds     float64 // time spent at full network bandwidth (worst machine)
	NetOveruseSec  float64 // duration network demand exceeded the compute overlap window
	DiskSeconds    float64 // out-of-core IO time (worst machine)
	DiskUtil       float64 // disk demand / compute+net window; may exceed 1
	IOOveruseSec   float64 // duration the disk was saturated
	IOQueueLen     float64 // average messages waiting for the disk
	WireBytes      float64 // paper-scale bytes crossing the network (total)

	// SkewRatio is worst machine base time / mean machine base time (1 when
	// perfectly balanced) — the straggler metric behind the paper's skewed-
	// partition observations.
	SkewRatio float64
	// PerMachine breaks the round cost down by machine. Note that
	// Seconds = max over machines of (compute+net+disk) + barrier, all
	// multiplied by ThrashFactor — phases of *different* machines do not sum
	// to Seconds.
	PerMachine []MachineCost
}

// JobResult summarizes a whole multi-processing job (possibly many batches).
type JobResult struct {
	Seconds  float64
	Rounds   int
	Batches  int
	Overload bool // exceeded the 6000 s cutoff (§4, "overload")
	Overflow bool // a machine exceeded physical memory + swap headroom

	TotalLogicalMsgs float64 // paper scale
	AvgMsgsPerRound  float64
	MaxMsgsPerRound  float64
	PeakMemBytes     float64 // worst machine over the whole job
	MaxMemRatio      float64
	ComputeSeconds   float64 // summed worst-machine compute phase
	BarrierSeconds   float64 // summed barrier overhead
	NetSeconds       float64
	NetOveruseSec    float64
	DiskSeconds      float64
	MaxDiskUtil      float64
	IOOveruseSec     float64
	MaxIOQueueLen    float64
	WireBytesTotal   float64
	WireBytesPerMach float64
	MaxSkewRatio     float64 // worst per-round machine imbalance (1 = balanced)
	// OOC* totals summarize the partitioned out-of-core backend's measured
	// partition-file traffic (replica scale): bytes summed over rounds, the
	// window peak maxed. Zero for in-memory runs.
	OOCReadBytes       int64
	OOCWriteBytes      int64
	OOCWindowPeakBytes int64
	Credits            float64 // cloud monetary cost; 0 off-cloud
	CreditsLowerBound  bool    // true when Overload: cost is a lower bound (paper marks '>')

	// Fault-tolerance accounting (zero for runs without checkpointing).
	CheckpointsWritten int     // checkpoints cut at superstep barriers
	CheckpointBytes    int64   // real snapshot bytes written (replica scale)
	CheckpointSeconds  float64 // simulated time spent writing checkpoints
	Recoveries         int     // injected failures recovered from
	RoundsLost         int     // supersteps re-executed across all recoveries
	RecoverySeconds    float64 // simulated restart + reload + re-execution time
}

// TaskMemModel carries per-task memory constants used by the cost model:
// how many paper-scale bytes one live state entry and one residual entry
// occupy. Residual entries are the intermediate results of completed
// batches that must be retained for final aggregation (§4.5, §5).
type TaskMemModel struct {
	StateBytesPerEntry    float64
	ResidualBytesPerEntry float64
}
