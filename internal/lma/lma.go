// Package lma implements the Levenberg–Marquardt nonlinear least-squares
// fit of the paper's memory-consumption model f(x) = a·x^b + c (§5, Eq. 2
// and Eq. 4): given training pairs (2^r, y_r) it finds (a, b, c)
// minimizing Σ (y_r − f(2^r))². Parameters are initialized (pseudo-)
// randomly and refined in a damped Gauss–Newton loop, exactly the scheme
// the paper describes ("initialized randomly and updated in a
// gradient-descent manner until they converge or maximum trials are
// reached").
package lma

import (
	"errors"
	"math"

	"vcmt/internal/randx"
)

// PowerFit holds fitted parameters of f(x) = A·x^B + C.
type PowerFit struct {
	A, B, C float64
}

// Eval evaluates the fitted function at x.
func (p PowerFit) Eval(x float64) float64 {
	return p.A*math.Pow(x, p.B) + p.C
}

// Invert solves f(w) = y for w, the step the tuning framework uses to turn
// a memory budget into a batch workload (Eq. 6). It returns 0 when y is
// below the fixed offset C (no feasible workload), and 0 for non-physical
// fits with B ≤ 0: a decreasing curve would map a smaller budget to a
// *larger* workload, the exact inversion the scheduler must never act on.
func (p PowerFit) Invert(y float64) float64 {
	if p.A <= 0 || p.B <= 0 {
		return 0
	}
	base := (y - p.C) / p.A
	if base <= 0 {
		return 0
	}
	return math.Pow(base, 1/p.B)
}

// ErrBadInput is returned for degenerate fitting inputs.
var ErrBadInput = errors.New("lma: need at least three points with positive x")

// ErrNonPhysical is returned when every converged candidate has exponent
// B ≤ 0. Memory consumption grows with workload (§5's model assumes a, b
// > 0), so a decreasing fit — possible from heuristicInit's log-log slope
// on noisy data — must be rejected rather than handed to the scheduler,
// where Invert would turn a tighter budget into a bigger batch.
var ErrNonPhysical = errors.New("lma: fit is non-physical (exponent B ≤ 0)")

// The solver runs restarts fits, the first from a heuristic start and the
// rest from random ones, each bounded by maxIter iterations.
const (
	restarts = 8
	maxIter  = 200
)

// Options tunes the solver.
type Options struct {
	// Seed drives the random initialization.
	Seed uint64
}

// FitPower fits f(x) = a·x^b + c to the given points and returns the
// best-SSE fit across restarts.
func FitPower(xs, ys []float64, opts Options) (PowerFit, error) {
	if len(xs) != len(ys) || len(xs) < 3 {
		return PowerFit{}, ErrBadInput
	}
	for _, x := range xs {
		if x <= 0 {
			return PowerFit{}, ErrBadInput
		}
	}
	rng := randx.New(opts.Seed ^ 0x1afa17)

	var yMin, yMax, xMax float64 = math.Inf(1), math.Inf(-1), 0
	for i := range xs {
		yMin = math.Min(yMin, ys[i])
		yMax = math.Max(yMax, ys[i])
		xMax = math.Max(xMax, xs[i])
	}

	best := PowerFit{}
	bestSSE := math.Inf(1)
	anyConverged := false
	for r := 0; r < restarts; r++ {
		var init PowerFit
		if r == 0 {
			// Heuristic start: c at the low end, b from a log-log slope.
			init = heuristicInit(xs, ys, yMin)
		} else {
			span := yMax - yMin
			if span <= 0 {
				span = math.Max(yMax, 1)
			}
			init = PowerFit{
				A: span / math.Max(xMax, 1) * (0.1 + 2*rng.Float64()),
				B: 0.3 + 1.7*rng.Float64(),
				C: yMin * rng.Float64(),
			}
		}
		fit, sse := levenbergMarquardt(xs, ys, init)
		if !math.IsInf(sse, 1) && !math.IsNaN(sse) {
			anyConverged = true
		}
		if fit.B <= 0 {
			continue // non-physical candidate; see ErrNonPhysical
		}
		if sse < bestSSE {
			bestSSE = sse
			best = fit
		}
	}
	if math.IsInf(bestSSE, 1) || math.IsNaN(bestSSE) {
		if anyConverged {
			return PowerFit{}, ErrNonPhysical
		}
		return PowerFit{}, errors.New("lma: fit did not converge")
	}
	return best, nil
}

func heuristicInit(xs, ys []float64, yMin float64) PowerFit {
	c := 0.9 * yMin
	// Log-log regression of (x, y-c).
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		d := ys[i] - c
		if d <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(d)
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return PowerFit{A: 1, B: 1, C: c}
	}
	den := float64(n)*sxx - sx*sx
	b := 1.0
	if den != 0 {
		b = (float64(n)*sxy - sx*sy) / den
	}
	a := math.Exp((sy - b*sx) / float64(n))
	return PowerFit{A: a, B: b, C: c}
}

func sse(xs, ys []float64, p PowerFit) float64 {
	var s float64
	for i := range xs {
		r := ys[i] - p.Eval(xs[i])
		s += r * r
	}
	return s
}

// levenbergMarquardt runs the damped Gauss–Newton loop from init.
func levenbergMarquardt(xs, ys []float64, p PowerFit) (PowerFit, float64) {
	lambda := 1e-3
	cur := sse(xs, ys, p)
	for iter := 0; iter < maxIter; iter++ {
		// Assemble JᵀJ and Jᵀr with the analytic Jacobian of a·x^b + c.
		var jtj [3][3]float64
		var jtr [3]float64
		for i := range xs {
			xb := math.Pow(xs[i], p.B)
			f := p.A*xb + p.C
			res := ys[i] - f
			j := [3]float64{xb, p.A * xb * math.Log(xs[i]), 1}
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					jtj[r][c] += j[r] * j[c]
				}
				jtr[r] += j[r] * res
			}
		}
		for d := 0; d < 3; d++ {
			jtj[d][d] *= 1 + lambda
		}
		delta, ok := solve3(jtj, jtr)
		if !ok {
			lambda *= 10
			continue
		}
		trial := PowerFit{A: p.A + delta[0], B: p.B + delta[1], C: p.C + delta[2]}
		trialSSE := sse(xs, ys, trial)
		if math.IsNaN(trialSSE) || trialSSE >= cur {
			lambda *= 3
			if lambda > 1e12 {
				break
			}
			continue
		}
		p = trial
		if cur-trialSSE < 1e-12*(1+cur) {
			cur = trialSSE
			break
		}
		cur = trialSSE
		lambda /= 3
	}
	return p, cur
}

// solve3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting; ok is false for singular systems.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, bool) {
	var m [3][4]float64
	for r := 0; r < 3; r++ {
		copy(m[r][:3], a[r][:])
		m[r][3] = b[r]
	}
	for col := 0; col < 3; col++ {
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-300 {
			return [3]float64{}, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < 3; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	var x [3]float64
	for r := 2; r >= 0; r-- {
		sum := m[r][3]
		for c := r + 1; c < 3; c++ {
			sum -= m[r][c] * x[c]
		}
		x[r] = sum / m[r][r]
	}
	return x, true
}
