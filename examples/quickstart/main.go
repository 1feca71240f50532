// Quickstart: run one multi-processing job (Batch Personalized PageRank)
// on a simulated 8-machine cluster and print the round-congestion tradeoff
// across batch counts.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

func main() {
	// A small power-law graph: 5000 vertices, ~40000 arcs.
	g := graph.GenerateChungLu(5000, 20000, 2.5, 42)
	part := graph.HashPartition(g.NumVertices(), sim.Galaxy8.Machines)
	fmt.Printf("graph: %d vertices, %d arcs, avg degree %.1f\n",
		g.NumVertices(), g.NumEdges(), g.AvgDegree())

	// The multi-processing job: 64 α-decay random walks from every vertex.
	const walksPerNode = 64
	fmt.Printf("job: BPPR, %d walks per vertex (%d walks total)\n\n",
		walksPerNode, walksPerNode*g.NumVertices())

	fmt.Println("batches  time      rounds  msgs/round  peak-mem/machine")
	for _, k := range []int{1, 2, 4, 8, 16} {
		job := tasks.NewBPPR(g, part, tasks.BPPRConfig{
			WalksPerNode: walksPerNode,
			Seed:         7,
		})
		cfg := sim.JobConfig{
			Cluster: sim.Galaxy8,
			System:  sim.PregelPlus,
			// Pretend the workload is 512x heavier than the replica run, so
			// the memory tradeoff is visible against 16 GB machines.
			StatScale: 512,
		}
		res, err := batch.Run(job, cfg, batch.Equal(walksPerNode, k), nil)
		if err != nil {
			log.Fatal(err)
		}
		status := fmt.Sprintf("%7.1fs", res.Seconds)
		if res.Overload {
			status = "overload"
		}
		fmt.Printf("%7d  %s  %6d  %9.1fM  %13.2fGB\n",
			k, status, res.Rounds, res.AvgMsgsPerRound/1e6, res.PeakMemBytes/(1<<30))
	}

	// The computed estimates are real: inspect a personalized PageRank.
	job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 2000, Seed: 7})
	if _, err := batch.Run(job, sim.JobConfig{Cluster: sim.Galaxy8, System: sim.PregelPlus},
		batch.Single(2000), nil); err != nil {
		log.Fatal(err)
	}
	src := graph.VertexID(0)
	fmt.Printf("\ntop PPR values with respect to vertex %d:\n", src)
	type pair struct {
		v   graph.VertexID
		ppr float64
	}
	var top []pair
	for v := 0; v < g.NumVertices(); v++ {
		if p := job.Estimate(src, graph.VertexID(v)); p > 0 {
			top = append(top, pair{graph.VertexID(v), p})
		}
	}
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].ppr > top[i].ppr {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	for i := 0; i < 5 && i < len(top); i++ {
		fmt.Printf("  ppr(%d -> %d) = %.4f\n", src, top[i].v, top[i].ppr)
	}
}
