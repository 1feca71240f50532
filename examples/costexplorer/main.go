// Costexplorer: sweep batch counts for one task across several VC-system
// variants and print the U-shaped round-congestion tradeoff curves the
// paper's Figures 3/5/7 plot — including memory-bound overloads at low
// batch counts and synchronization overheads at high ones.
//
//	go run ./examples/costexplorer [-task BPPR|MSSP|BKHS] [-dataset DBLP]
package main

import (
	"flag"
	"fmt"
	"log"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

func main() {
	taskName := flag.String("task", "BPPR", "benchmark task: BPPR, MSSP or BKHS")
	dataset := flag.String("dataset", "DBLP", "dataset replica (see Table 1)")
	flag.Parse()

	d, err := graph.Dataset(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	g := d.Load()
	part := graph.HashPartition(g.NumVertices(), sim.Galaxy8.Machines)
	fmt.Printf("%s replica: %d vertices, %d arcs (paper: %d / %d)\n\n",
		d.Name, g.NumVertices(), g.NumEdges(), d.PaperNodes, d.PaperEdges)

	systems := []sim.SystemProfile{
		sim.PregelPlus, sim.Giraph, sim.GraphD, sim.GraphLab,
	}
	const workload = 160 // replica walks per node / sources
	spec := tasks.Spec{Task: *taskName, Workload: workload, Seed: 5}
	if *taskName != "BPPR" {
		// 64 sources, a stride sweep over the vertex ids.
		stride := 31
		if *taskName == "BKHS" {
			stride = 17
		}
		spec.Sources = make([]graph.VertexID, 64)
		for i := range spec.Sources {
			spec.Sources[i] = graph.VertexID(i * stride % g.NumVertices())
		}
	}

	fmt.Printf("task %s, workload %d, Galaxy-8 cost model\n\n", *taskName, workload)
	fmt.Printf("%-12s", "system")
	for _, k := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("%9d-batch", k)
	}
	fmt.Println()
	for _, sys := range systems {
		fmt.Printf("%-12s", sys.Name)
		for _, k := range []int{1, 2, 4, 8, 16} {
			job, err := tasks.Build(g, part, sys, spec)
			if err != nil {
				log.Fatal(err)
			}
			cfg := sim.JobConfig{
				Cluster:   sim.Galaxy8,
				System:    sys,
				StatScale: d.ScaleNodes() * 64,
				NodeScale: d.ScaleNodes(),
			}
			res, err := batch.Run(job, cfg, batch.Equal(job.TotalWorkload(), k), nil)
			if err != nil {
				log.Fatal(err)
			}
			cell := fmt.Sprintf("%14.0fs", res.Seconds)
			if res.Overload {
				cell = fmt.Sprintf("%15s", "overload")
			}
			fmt.Print(cell)
		}
		fmt.Println()
	}
	fmt.Println("\noverload = past the paper's 6000 s cutoff at extrapolated paper scale")
}
