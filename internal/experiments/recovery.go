package experiments

import (
	"fmt"
	"io"
	"os"

	"vcmt/internal/batch"
	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// This file extends the evaluation beyond the paper: the fault-tolerance
// sweep prices superstep checkpointing and crash recovery with the
// simulator's cost model. Shorter intervals pay more checkpoint-write time
// but lose fewer supersteps per crash; the sweep locates the trade-off for
// the paper's MSSP setting.

// RecoveryPoint is one checkpoint-interval setting of the sweep, run twice
// on identical inputs: once clean (checkpoint overhead only) and once with
// the injected crash schedule (overhead plus rollback and replay). The
// deterministic-recovery contract guarantees both runs report identical
// rounds and message statistics.
type RecoveryPoint struct {
	Interval int
	Clean    sim.JobResult
	Faulted  sim.JobResult
}

// RecoveryResult is the fault-tolerance sweep: a checkpoint-free baseline
// plus one point per interval.
type RecoveryResult struct {
	Baseline   sim.JobResult
	CrashSteps []int
	Points     []RecoveryPoint
}

// recoveryIntervals is the doubling sweep of checkpoint intervals.
var recoveryIntervals = []int{1, 2, 4, 8, 16}

// FigureRecovery sweeps the checkpoint interval for the paper's MSSP
// setting on DBLP/Galaxy-8 under a fixed two-crash schedule.
func FigureRecovery(o Options) (RecoveryResult, error) {
	d, err := graph.Dataset("DBLP")
	if err != nil {
		return RecoveryResult{}, err
	}
	g := d.Load()
	s := setting{
		dataset: "DBLP", cluster: sim.Galaxy8, machines: 8,
		system: sim.PregelPlus, task: MSSP, paperW: 512, seed: o.seed(),
	}
	replicaW := s.replicaWorkload(o)
	cfg := s.jobConfig(d, replicaW)
	part := graph.HashPartition(g.NumVertices(), cfg.Cluster.Machines)
	sources := pickSources(g.NumVertices(), replicaW, s.seed)
	// Both crashes land well inside the run (MSSP on the DBLP replica takes
	// ~11 supersteps) and past the step-1 checkpoint every interval cuts.
	crashSteps := []int{3, 6}

	runOne := func(interval int, crashes []int) (sim.JobResult, error) {
		mcfg := tasks.MSSPConfig{
			Sources: sources, Mirror: s.system.Mirror, Seed: o.seed(), Workers: o.Workers,
		}
		if interval > 0 {
			dir, err := os.MkdirTemp("", "vcmt-recovery-")
			if err != nil {
				return sim.JobResult{}, err
			}
			defer os.RemoveAll(dir)
			mcfg.CheckpointDir = dir
			mcfg.CheckpointInterval = interval
		}
		if len(crashes) > 0 {
			spec := ""
			for _, step := range crashes {
				spec += fmt.Sprintf("crash:worker=0,step=%d;", step)
			}
			plan, err := fault.Parse(spec)
			if err != nil {
				return sim.JobResult{}, err
			}
			mcfg.Fault = plan
		}
		job, err := tasks.NewMSSP(g, part, mcfg)
		if err != nil {
			return sim.JobResult{}, err
		}
		return batch.Run(job, cfg, batch.Single(replicaW), nil)
	}

	out := RecoveryResult{CrashSteps: crashSteps}
	if out.Baseline, err = runOne(0, nil); err != nil {
		return RecoveryResult{}, err
	}
	for _, ival := range recoveryIntervals {
		p := RecoveryPoint{Interval: ival}
		if p.Clean, err = runOne(ival, nil); err != nil {
			return RecoveryResult{}, err
		}
		if p.Faulted, err = runOne(ival, crashSteps); err != nil {
			return RecoveryResult{}, err
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// WriteRecovery renders the fault-tolerance sweep as an aligned table.
func WriteRecovery(w io.Writer, res RecoveryResult) {
	fmt.Fprintf(w, "== Recovery: runtime vs checkpoint interval under %d injected crashes (MSSP 512, DBLP, Galaxy-8) ==\n",
		len(res.CrashSteps))
	rows := [][]string{{"interval", "clean", "ckpt-cost", "faulted", "recovery-cost", "ckpts", "rounds-lost"}}
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Interval),
			fmt.Sprintf("%.1fs", p.Clean.Seconds),
			fmt.Sprintf("%.1fs", p.Clean.CheckpointSeconds),
			fmt.Sprintf("%.1fs", p.Faulted.Seconds),
			fmt.Sprintf("%.1fs", p.Faulted.RecoverySeconds),
			fmt.Sprintf("%d", p.Faulted.CheckpointsWritten),
			fmt.Sprintf("%d", p.Faulted.RoundsLost),
		})
	}
	writeAligned(w, rows)
	fmt.Fprintf(w, "  baseline (no checkpoints, no faults): %.1fs over %d rounds\n\n",
		res.Baseline.Seconds, res.Baseline.Rounds)
}
