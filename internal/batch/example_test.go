package batch_test

import (
	"fmt"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// Example demonstrates the round-congestion tradeoff: the same BPPR job
// divided into 1 vs 4 batches. Fewer batches mean fewer rounds but a
// higher per-round message peak.
func Example() {
	g := graph.GenerateChungLu(1000, 4000, 2.5, 42)
	part := graph.HashPartition(g.NumVertices(), 4)
	cfg := sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(4), System: sim.PregelPlus}

	for _, k := range []int{1, 4} {
		job := tasks.NewBPPR(g, part, tasks.BPPRConfig{WalksPerNode: 32, Seed: 7})
		res, err := batch.Run(job, cfg, batch.Equal(32, k), nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%d batch(es): rounds=%d, peak msgs %.0fK\n",
			k, res.Rounds, res.MaxMsgsPerRound/1000)
	}
	// Output:
	// 1 batch(es): rounds=60, peak msgs 27K
	// 4 batch(es): rounds=267, peak msgs 7K
}

// ExampleTwoUnequal shows the paper's unequal two-batch split (Fig. 9).
func ExampleTwoUnequal() {
	fmt.Println(batch.TwoUnequal(12800, 2560))
	// Output:
	// [7680 5120]
}
