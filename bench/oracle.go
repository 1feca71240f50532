package main

import (
	"fmt"
	"math"

	"vcmt/internal/graph"
	"vcmt/internal/ref"
	"vcmt/internal/tasks"
)

// sample returns up to k indices spread over [0, n): first, last and evenly
// between. The oracles are sequential whole-graph searches, so they check a
// sample of the sources, not all of them.
func sample(n, k int) []int {
	if n <= k {
		k = n
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		idx := 0
		if k > 1 {
			idx = i * (n - 1) / (k - 1)
		}
		out = append(out, idx)
	}
	return out
}

// checkDistances holds one source's distances to ref.Dijkstra.
func checkDistances(g *graph.Graph, src graph.VertexID, dist func(v graph.VertexID) float64) error {
	exact := ref.Dijkstra(g, src)
	for v := range exact {
		got := dist(graph.VertexID(v))
		if math.IsInf(exact[v], 1) != math.IsInf(got, 1) ||
			(!math.IsInf(got, 1) && math.Abs(got-exact[v]) > 1e-4) {
			return fmt.Errorf("MSSP source %d vertex %d: distance %v, oracle %v", src, v, got, exact[v])
		}
	}
	return nil
}

func checkReached(g *graph.Graph, src graph.VertexID, k int, got int64) error {
	if want := int64(len(ref.KHop(g, src, k))); got != want {
		return fmt.Errorf("BKHS source %d: reached %d, oracle %d", src, got, want)
	}
	return nil
}

// checkTaskOutputs compares what a finished in-process job computed against
// the internal/ref oracles and the tasks' own conservation laws.
func checkTaskOutputs(g *graph.Graph, js jobSpec, job tasks.Job) error {
	switch j := job.(type) {
	case *tasks.MSSPJob:
		if j.SourcesDone() != len(js.Sources) {
			return fmt.Errorf("MSSP: %d of %d sources done", j.SourcesDone(), len(js.Sources))
		}
		for _, i := range sample(len(js.Sources), 2) {
			i := i
			if err := checkDistances(g, js.Sources[i], func(v graph.VertexID) float64 { return j.Distance(i, v) }); err != nil {
				return err
			}
		}
	case *tasks.BKHSJob:
		if j.SourcesDone() != len(js.Sources) {
			return fmt.Errorf("BKHS: %d of %d sources done", j.SourcesDone(), len(js.Sources))
		}
		for _, i := range sample(len(js.Sources), 4) {
			if err := checkReached(g, js.Sources[i], js.K, j.Reached(i)); err != nil {
				return err
			}
		}
	case *tasks.BPPRJob:
		if j.WalksLaunched() != js.Workload {
			return fmt.Errorf("BPPR: %d walks per vertex launched, want %d", j.WalksLaunched(), js.Workload)
		}
		for _, v := range sample(g.NumVertices(), 2) {
			if mass := j.EndpointMass(graph.VertexID(v)) / float64(js.Workload); math.Abs(mass-1) > 1e-9 {
				return fmt.Errorf("BPPR source %d: endpoint mass %v, want 1", v, mass)
			}
		}
	default:
		return fmt.Errorf("no oracle for %T", job)
	}
	return nil
}
