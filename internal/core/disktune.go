package core

import (
	"fmt"

	"vcmt/internal/batch"
	"vcmt/internal/ooc"
	"vcmt/internal/sim"
)

// This file implements the paper's second optimization strategy box
// (§4.4): "For out-of-core VC-systems, we minimize the number of batches
// until per-batch parallelization incurs 100% disk utilization." Memory
// does not bind for these systems (they cap their buffers), so the tuning
// signal is disk saturation instead of memory consumption.

// DiskTuneResult reports the disk-bound tuning outcome.
type DiskTuneResult struct {
	// Batches is the smallest batch count whose run keeps max disk
	// utilization below 100%.
	Batches int
	// Utils records the max disk utilization measured at each probed
	// batch count, keyed by batch count.
	Utils map[int]float64
	// Saturated reports whether even the largest probed batch count still
	// saturates the disk (the workload simply exceeds the disks).
	Saturated bool
}

// DiskTune probes batch counts (doubling from 1 up to maxBatches) for an
// out-of-core system and returns the smallest count that avoids disk
// saturation, per §4.4's guideline. The factory must produce a fresh job
// per probe. The probes are real runs, so DiskTune is a trial-and-error
// tuner in the spirit of §4.10's practical guidelines rather than a
// model-based one.
func DiskTune(mk JobFactory, cfg sim.JobConfig, total, maxBatches int) (DiskTuneResult, error) {
	if !cfg.System.OutOfCore {
		return DiskTuneResult{}, fmt.Errorf("core: DiskTune requires an out-of-core system, got %s", cfg.System.Name)
	}
	if maxBatches < 1 {
		maxBatches = 128
	}
	res := DiskTuneResult{Utils: map[int]float64{}}
	for k := 1; k <= maxBatches; k *= 2 {
		job := mk()
		r, err := batch.Run(job, cfg, batch.Equal(total, k), nil)
		if err != nil {
			return DiskTuneResult{}, fmt.Errorf("core: disk probe at %d batches: %w", k, err)
		}
		res.Utils[k] = r.MaxDiskUtil
		if r.MaxDiskUtil < 1 {
			res.Batches = k
			return res, nil
		}
	}
	res.Batches = maxBatches
	res.Saturated = true
	return res, nil
}

// CalibrateDiskBandwidth returns cfg with the cluster's disk bandwidth
// replaced by the bandwidth a real out-of-core run measured (wall-clock
// partition-file IO, see ooc.IOStats), plus the bandwidth used. When the
// stats carry no signal — nil, or no timed IO recorded — cfg is returned
// unchanged and the bandwidth is 0, so callers can fall back to the
// profile constant unconditionally.
func CalibrateDiskBandwidth(cfg sim.JobConfig, st *ooc.IOStats) (sim.JobConfig, float64) {
	bw := st.BytesPerSec()
	if bw > 0 {
		cfg.Cluster.DiskBytesPerSec = bw
	}
	return cfg, bw
}

// DiskTuneCalibrated is DiskTune with the disk bandwidth recalibrated from
// observation instead of the profile constant: the measured read/write
// throughput of a real partitioned out-of-core run (engine.OOCOptions.Stats)
// replaces cfg.Cluster.DiskBytesPerSec before the batch-count probes run.
// With no measured signal it degrades to plain DiskTune.
func DiskTuneCalibrated(mk JobFactory, cfg sim.JobConfig, total, maxBatches int, st *ooc.IOStats) (DiskTuneResult, error) {
	cfg, _ = CalibrateDiskBandwidth(cfg, st)
	return DiskTune(mk, cfg, total, maxBatches)
}
