// Batchtuning: the full Section-5 flow of the paper's tuning framework.
//
// It (1) trains the memory model on light powers-of-two workloads,
// (2) fits M*(W) and M_r*(W) = a·W^b + c by Levenberg–Marquardt,
// (3) derives the optimized batch schedule from Eq. 5–6, and
// (4) compares the schedule against Full-Parallelism.
//
//	go run ./examples/batchtuning
package main

import (
	"errors"
	"fmt"
	"log"

	"vcmt/internal/batch"
	"vcmt/internal/core"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

func main() {
	g := graph.MustLoad("DBLP")
	machines := 4
	part := graph.HashPartition(g.NumVertices(), machines)
	cfg := sim.JobConfig{
		Cluster:   sim.Galaxy8.WithMachines(machines),
		System:    sim.PregelPlus,
		StatScale: 4500, // make memory bind on 16 GB machines
		NodeScale: 64,
	}
	mk := func() tasks.Job {
		return tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 1 << 20, Seed: 3})
	}

	fmt.Println("=== training phase (workloads 2^1..2^5) ===")
	model, err := core.Train(mk, cfg, core.TrainConfig{MaxExponent: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range model.Points {
		fmt.Printf("  W=%-3.0f  M*=%6.2fGB  Mr*=%6.2fGB\n",
			p.Workload, p.MaxMemBytes/(1<<30), p.MaxResidualBytes/(1<<30))
	}
	fmt.Printf("fitted M*(W)  = %.3g*W^%.3f + %.3g\n", model.Mem.A, model.Mem.B, model.Mem.C)
	fmt.Printf("fitted Mr*(W) = %.3g*W^%.3f + %.3g\n", model.Resid.A, model.Resid.B, model.Resid.C)

	fmt.Println("\n=== optimized schedules (Eq. 6) ===")
	for _, total := range []int{48, 64, 80, 96} {
		sched, err := model.Schedule(total)
		if errors.Is(err, core.ErrDegraded) {
			fmt.Printf("  W=%-4d -> %v (degraded: tail predicted to overload)\n", total, []int(sched))
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  W=%-4d -> %v\n", total, []int(sched))
	}

	fmt.Println("\n=== evaluation: Optimized vs Full-Parallelism ===")
	fmt.Println("workload  Full-Parallelism  Optimized")
	for _, total := range []int{48, 64, 80, 96} {
		sched, err := model.Schedule(total)
		if err != nil && !errors.Is(err, core.ErrDegraded) {
			log.Fatal(err)
		}
		opt, err := batch.Run(mk(), cfg, sched, nil)
		if err != nil {
			log.Fatal(err)
		}
		full, err := batch.Run(mk(), cfg, batch.Single(total), nil)
		if err != nil {
			log.Fatal(err)
		}
		fullCell := fmt.Sprintf("%8.0fs", full.Seconds)
		if full.Overload {
			fullCell = "overload"
		}
		fmt.Printf("%8d  %16s  %8.0fs\n", total, fullCell, opt.Seconds)
	}
}
