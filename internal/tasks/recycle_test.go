package tasks

import (
	"fmt"
	"sync"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/sim"
)

// TestConcurrentJobsShareRecyclers runs BKHS jobs two at a time, as vcserve
// does at MaxRunning 2: each job releases its outbox chunks, inbox, hop
// tables and out-of-core scratch when it ends, and the other goroutine's
// next job takes them. Every job must give exactly what it gives run
// alone; under the race detector (CI's `go test -race -short ./...`) a
// buffer live in two engines at once is also a reported race. Not skipped
// under -short: the race run is the point.
func TestConcurrentJobsShareRecyclers(t *testing.T) {
	type spec struct {
		g    *graph.Graph
		part *graph.Partition
		ooc  bool
	}
	var specs []spec
	for i, n := range []int{300, 500, 200} {
		g := graph.GenerateChungLu(n, int64(4*n), 2.5, uint64(31+i))
		if i == 1 {
			g = graph.WithUniformWeights(g, 1, 4, 7)
		}
		for _, ooc := range []bool{false, true} {
			specs = append(specs, spec{g, graph.HashPartition(n, 3), ooc})
		}
	}
	run := func(s spec) (string, error) {
		c := BKHSConfig{Sources: FirstSources(s.g.NumVertices(), 12), Seed: 3, Workers: 2}
		if s.ooc {
			c.OOC = &OOCConfig{Partitions: 2}
		}
		j := NewBKHS(s.g, s.part, c)
		simRun := sim.NewRun(testRunCfg(3))
		for i := range 3 {
			if _, err := j.RunBatch(simRun, 4, i); err != nil {
				return "", err
			}
		}
		return fmt.Sprint(j.reached, simRun.Result()), nil
	}
	want := make([]string, len(specs))
	for i, s := range specs {
		var err error
		if want[i], err = run(s); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 2 * len(specs) {
				i := (round + w*len(specs)/2) % len(specs)
				if got, err := run(specs[i]); err != nil || got != want[i] {
					t.Errorf("goroutine %d, job %d (out of core %v): %v, results differ from the job run alone: %v",
						w, i, specs[i].ooc, err, got != want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
