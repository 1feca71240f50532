package sim

import "math"

// Cost-model constants. Each is anchored to a published measurement; the
// anchors are listed next to the constant. Times come out in seconds at
// paper scale, so results are directly comparable in magnitude to the
// paper's figures (EXPERIMENTS.md records paper-vs-measured for each).
const (
	// DefaultCutoffSeconds is the paper's overload cutoff: runs that do
	// not finish within 6000 s are reported as "overload" (§4).
	DefaultCutoffSeconds = 6000

	// barrierBaseSec + barrierPerMachineSec model the per-superstep
	// synchronization barrier. Anchor: GraphLab PageRank on DBLP needs
	// ~30 rounds; sync loses ~3.8 s to async on one machine and the gap
	// grows with machines (Table 4, 12.9 s vs 9.1 s at K=1, 9.6 vs 3.9 at
	// K=16); GraphD's 128-batch run pays ~430 s of pure round overhead
	// over ~12k rounds on 27 machines (Table 3).
	barrierBaseSec       = 0.010
	barrierPerMachineSec = 0.0011

	// thrashGamma shapes the virtual-memory penalty once a machine's
	// demand exceeds its usable capacity: time multiplies by
	// 1 + thrashGamma*(ratio-1)^2. Anchor: Fig. 6 — W=10240 1-batch needs
	// ~19 GB of 14 GB usable (ratio≈1.39) and runs ~4-6x slower than the
	// congestion-free extrapolation (6641.5 s vs ~1733 s), while W=12288
	// 1-batch (ratio≈1.66) blows the 6000 s cutoff.
	thrashGamma = 30.0

	// overflowRatio marks the point past which the paper reports
	// "Overflow" (Table 2: workload 12288, 1 batch, 4 machines) — demand
	// so far beyond physical memory that the OS kills or wedges the job.
	overflowRatio = 2.0

	// netOveruseComputeOverlap: network time overlapped by at most this
	// fraction of compute (plus the barrier) does not count as overuse;
	// the remainder is the "duration when the maximum network bandwidth is
	// met". More batches mean smaller per-round transfers hidden behind
	// fixed per-round costs, so overuse declines with the batch count
	// (Tables 2, 3).
	netOveruseComputeOverlap = 0.5

	// ioRequestBytes is the disk queue accounting unit: the paper's "I/O
	// queue length" counts pending requests, not messages (Table 3).
	ioRequestBytes = 64 << 10

	// diskQueuePenalty stretches IO time once the disk is saturated
	// (utilization > 1 means messages queue; Table 3 shows 1-batch total
	// 285 s vs 201 s at the 4-batch optimum with identical totals).
	diskQueuePenalty = 0.8

	// lockMachineExponent: GraphLab(async) locking overhead per activation
	// grows ~K^0.5 with the machine count (§4.8: fibers scale with
	// machines and distributed locking overhead grows accordingly).
	lockMachineExponent = 0.5

	// ckptSyncSec is the fixed per-checkpoint commit overhead: quiescing
	// the barrier, fsyncing the snapshot files, and the rename. Anchor:
	// Pregel-lineage systems report sub-second checkpoint initiation on
	// small clusters (Ammar & Özsu's experimental survey); the volume term
	// below dominates for any non-trivial snapshot.
	ckptSyncSec = 0.05

	// ckptRestartSec is the fixed recovery overhead before any checkpoint
	// bytes are reloaded: detecting the failure, restarting the worker
	// process, re-establishing the k^2 peer connections, and re-issuing
	// the job spec.
	ckptRestartSec = 5.0
)

// checkpointSeconds prices writing `bytes` replica-scale checkpoint bytes:
// each machine streams its share to local disk in parallel, so the volume
// term divides by the cluster's machine count.
func (r *Run) checkpointSeconds(bytes int64) float64 {
	sec := ckptSyncSec
	cl := r.cfg.Cluster
	if cl.DiskBytesPerSec > 0 && cl.Machines > 0 {
		sec += float64(bytes) * r.cfg.StatScale / (cl.DiskBytesPerSec * float64(cl.Machines))
	}
	return sec
}

// recoverySeconds prices one recovery: the fixed restart overhead, the
// parallel reload of the last checkpoint, and the re-execution of the
// supersteps lost since it was cut (lostSeconds, already at paper scale).
func (r *Run) recoverySeconds(reloadBytes int64, lostSeconds float64) float64 {
	sec := ckptRestartSec + lostSeconds
	cl := r.cfg.Cluster
	if cl.DiskBytesPerSec > 0 && cl.Machines > 0 {
		sec += float64(reloadBytes) * r.cfg.StatScale / (cl.DiskBytesPerSec * float64(cl.Machines))
	}
	return sec
}

// roundCost prices one superstep. residualBytes is the per-machine
// paper-scale residual memory carried in from earlier batches.
func (r *Run) roundCost(rs RoundStats) RoundResult {
	cl := r.cfg.Cluster
	sys := r.cfg.System
	f := r.cfg.StatScale
	nf := r.cfg.NodeScale

	var res RoundResult
	res.ThrashFactor = 1
	res.PerMachine = make([]MachineCost, len(rs.PerMachine))
	var worstBase, sumBase float64

	var barrierSec float64
	switch sys.Async {
	case Sync:
		barrierSec = barrierBaseSec + barrierPerMachineSec*float64(cl.Machines)
	case PartialAsync:
		barrierSec = (barrierBaseSec + barrierPerMachineSec*float64(cl.Machines)) / 2
	case FullAsync:
		// no barrier
	}

	for m, mr := range rs.PerMachine {
		cpuMsgs := mr.RecvLogical
		bufMsgs := mr.RecvLogical + mr.SentLogical
		if sys.Combines {
			cpuMsgs = mr.RecvPhysical
			bufMsgs = mr.RecvPhysical + mr.SentPhysical
		}
		wireMsgs := mr.RemoteLogical
		if sys.WireCombines {
			wireMsgs = mr.RemotePhysical
		}

		lockNs := 0.0
		if sys.Async == FullAsync {
			lockNs = sys.LockNsPerActivation * math.Pow(float64(cl.Machines), lockMachineExponent)
		}
		computeSec := (float64(cpuMsgs)*f*sys.CPUNsPerMsg +
			float64(mr.ActiveVertices)*nf*sys.CPUNsPerVertex +
			float64(mr.Activations)*f*lockNs) / 1e9 / float64(cl.Cores)

		wireBytes := float64(wireMsgs) * f * float64(sys.WireBytesPerMsg)
		netSec := wireBytes / cl.NetBytesPerSec

		msgMemBytes := float64(bufMsgs) * f * float64(sys.MemBytesPerMsg)
		var diskSec, spillBytes float64
		var diskMeasured bool
		if sys.OutOfCore {
			budget := float64(sys.MemoryBudgetBytes)
			// The semi-streaming design always routes a share of the
			// message traffic through disk; buffer overflow beyond the
			// memory budget spills in full.
			spillBytes = sys.StreamFraction * msgMemBytes
			if msgMemBytes > budget {
				spillBytes += msgMemBytes - budget
				msgMemBytes = budget
			}
			if measured := rs.OOCReadBytes + rs.OOCWriteBytes; measured > 0 {
				diskMeasured = true
				// The partitioned backend measured the real partition-file
				// traffic for this superstep (engine-wide, replica scale):
				// price the disk phase from those bytes instead of the
				// stream-fraction estimate. Each simulated machine streams
				// its 1/K share in parallel; spillBytes holds the one-way
				// volume so the write-once/read-once doubling below still
				// applies.
				spillBytes = float64(measured) * f / float64(len(rs.PerMachine)) / 2
				// The memory-window invariant held for real: the resident
				// message footprint never exceeded the measured peak (which
				// the budget cap above already bounds).
				if wp := float64(rs.OOCWindowPeakBytes) * f; wp < msgMemBytes {
					msgMemBytes = wp
				}
			}
			// Spilled messages are written once and streamed back once.
			diskSec = 2 * spillBytes / cl.DiskBytesPerSec
		}

		stateBytes := float64(mr.StateEntries) * f * r.cfg.Task.StateBytesPerEntry
		residBytes := r.residualBytes(m)
		peak := r.cfg.GraphBytesPerMachine*sys.GraphMemFactor + msgMemBytes + stateBytes + residBytes
		if peak > res.PeakMemBytes {
			res.PeakMemBytes = peak
		}

		window := computeSec + netSec
		if sys.OutOfCore && diskSec > 0 {
			utilWindow := window
			if diskMeasured && utilWindow < barrierSec {
				// A measured sweep can land on a round with no compute or
				// network at all (the edge-partition build, a dried-up tail
				// round): the barrier is the round's wall-clock floor, so
				// utilization is relative to it rather than to zero.
				utilWindow = barrierSec
			}
			util := diskSec / math.Max(utilWindow, 1e-9)
			if util > res.DiskUtil {
				res.DiskUtil = util
			}
			if diskSec > utilWindow {
				res.IOOveruseSec += diskSec - utilWindow
				// Saturated disk: messages queue and IO stretches.
				diskSec *= 1 + diskQueuePenalty*(util-1)/util
				qLen := (spillBytes / ioRequestBytes) * (util - 1) / util
				if qLen > res.IOQueueLen {
					res.IOQueueLen = qLen
				}
			}
		}

		res.NetSeconds = math.Max(res.NetSeconds, netSec)
		res.NetOveruseSec += math.Max(0, netSec-netOveruseComputeOverlap*computeSec-barrierSec)
		res.DiskSeconds = math.Max(res.DiskSeconds, diskSec)
		res.ComputeSeconds = math.Max(res.ComputeSeconds, computeSec)
		res.WireBytes += wireBytes
		res.PerMachine[m] = MachineCost{
			ComputeSeconds: computeSec,
			NetSeconds:     netSec,
			DiskSeconds:    diskSec,
			MemBytes:       peak,
		}

		base := computeSec + netSec + diskSec
		sumBase += base
		if base > worstBase {
			worstBase = base
		}
	}

	res.SkewRatio = 1
	if n := len(rs.PerMachine); n > 0 && sumBase > 0 {
		res.SkewRatio = worstBase / (sumBase / float64(n))
	}
	res.BarrierSeconds = barrierSec
	worstBase += barrierSec

	usable := cl.UsableMemBytes()
	res.MemRatio = res.PeakMemBytes / usable
	if !sys.OutOfCore && res.MemRatio > 1 {
		over := res.MemRatio - 1
		res.ThrashFactor = 1 + thrashGamma*over*over
		if res.MemRatio >= overflowRatio {
			res.Overflow = true
		}
	}
	res.Seconds = worstBase * res.ThrashFactor
	return res
}
