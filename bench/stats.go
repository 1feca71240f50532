package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// tailCandidates are the percentiles a timing may be reported at.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest candidate percentile that still has at
// least ten of n samples beyond it; with fewer than twenty samples that is
// the median.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if float64(n)*(100-p) >= 1000-1e-6 { // tolerance: 100-99.9 is not exact
			best = p
		}
	}
	return best
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not touch).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
