package core

import (
	"testing"

	"vcmt/internal/batch"
	"vcmt/internal/lma"
)

// obsRecorder records AdaptiveObserver callbacks for assertions.
type obsRecorder struct {
	predictions int
	replans     int
	shrinks     int
	lastRelErr  float64
}

func (o *obsRecorder) OnBatchPrediction(batch, workload int, predicted, measured, relErr float64) {
	o.predictions++
	o.lastRelErr = relErr
}
func (o *obsRecorder) OnReplan(batch int, relErr float64, remaining []int) { o.replans++ }
func (o *obsRecorder) OnGovernorShrink(batch, fromW, toW int)              { o.shrinks++ }

func TestRunAdaptiveAccurateModelKeepsPlan(t *testing.T) {
	mk, cfg := tuneFixture(t)
	model, err := Train(mk, cfg, TrainConfig{MaxExponent: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 200
	rec := &obsRecorder{}
	res, err := model.RunAdaptive(mk(), cfg, total, AdaptiveConfig{Seed: 1, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Overload {
		t.Fatal("adaptive run with an accurate model must not overload")
	}
	if res.Executed.Total() != total {
		t.Fatalf("executed %v covers %d want %d", res.Executed, res.Executed.Total(), total)
	}
	if res.Replans != 0 {
		t.Fatalf("accurate model must not trigger re-plans, got %d", res.Replans)
	}
	if len(res.Predictions) != len(res.Executed) {
		t.Fatalf("predictions=%d executed=%d", len(res.Predictions), len(res.Executed))
	}
	if rec.predictions != len(res.Predictions) {
		t.Fatalf("observer predictions=%d want %d", rec.predictions, len(res.Predictions))
	}
	// With no replans and no shrinks the executed schedule is the plan.
	if res.GovernorShrinks == 0 {
		if len(res.Executed) != len(res.Planned) {
			t.Fatalf("executed %v vs planned %v", res.Executed, res.Planned)
		}
		for i := range res.Executed {
			if res.Executed[i] != res.Planned[i] {
				t.Fatalf("executed %v vs planned %v", res.Executed, res.Planned)
			}
		}
	}
	for _, p := range res.Predictions {
		if p.MeasuredBytes <= 0 || p.PredictedBytes <= 0 {
			t.Fatalf("degenerate prediction %+v", p)
		}
	}
}

func TestRunAdaptiveCorrectsMispricedFit(t *testing.T) {
	mk, cfg := tuneFixture(t)
	model, err := Train(mk, cfg, TrainConfig{MaxExponent: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately misprice the fit: the model claims memory and residual
	// grow slower than they really do, so the static schedule's oversized
	// batches thrash progressively harder until the run blows the cutoff.
	// The first batch must stay survivable (the loop can only correct from
	// batch two onward), so the peak curve is only mildly wrong while the
	// residual curve — whose error compounds across batches — is badly off.
	model.Mem.A *= 0.85
	model.Resid.A *= 0.3
	total := 500
	static, serr := model.Schedule(total)
	if serr != nil {
		t.Fatalf("perturbed model must still plan: %v", serr)
	}
	sres, err := batch.Run(mk(), cfg, static, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Overload {
		t.Fatalf("perturbation too weak: static schedule %v survived (ratio %v, %vs)",
			static, sres.MaxMemRatio, sres.Seconds)
	}
	rec := &obsRecorder{}
	res, err := model.RunAdaptive(mk(), cfg, total, AdaptiveConfig{Seed: 1, Tolerance: 0.05, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans == 0 && res.GovernorShrinks == 0 {
		t.Fatalf("mispriced fit must trigger the loop: %+v", res)
	}
	if rec.replans != res.Replans || rec.shrinks != res.GovernorShrinks {
		t.Fatalf("observer (%d,%d) vs result (%d,%d)", rec.replans, rec.shrinks, res.Replans, res.GovernorShrinks)
	}
	if res.Result.Overload {
		t.Fatalf("adaptive run must recover from the mispriced fit: %+v", res.Result)
	}
	if res.Executed.Total() != total {
		t.Fatalf("executed %v covers %d want %d", res.Executed, res.Executed.Total(), total)
	}
	if res.MaxRelError() <= 0 {
		t.Fatal("expected a nonzero prediction error")
	}
	if res.Result.Seconds >= sres.Seconds {
		t.Fatalf("adaptive (%vs) must beat the overloaded static run (%vs)",
			res.Result.Seconds, sres.Seconds)
	}
}

func TestRunAdaptiveGovernorCatchesResidualUnderestimate(t *testing.T) {
	mk, cfg := tuneFixture(t)
	model, err := Train(mk, cfg, TrainConfig{MaxExponent: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Underestimate only the residual curve: per-batch peaks predict fine
	// at first, but the plan's tail batches are too big once the real
	// residual accumulates. The governor must catch this from the measured
	// residual without waiting for the peak prediction to miss.
	model.Resid.A *= 0.2
	total := 220
	res, err := model.RunAdaptive(mk(), cfg, total, AdaptiveConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.GovernorShrinks == 0 && res.Replans == 0 {
		t.Fatalf("under-priced residual must trigger governor or replan: %+v", res)
	}
	if res.Result.Overload {
		t.Fatalf("adaptive run must not overload: %+v", res.Result)
	}
	if res.Executed.Total() != total {
		t.Fatalf("executed %v covers %d want %d", res.Executed, res.Executed.Total(), total)
	}
}

func TestRunAdaptiveInfeasibleModel(t *testing.T) {
	mk, cfg := tuneFixture(t)
	m := &Model{
		Mem:             lma.PowerFit{A: 1, B: 1, C: 1e12}, // offset above budget
		Resid:           lma.PowerFit{A: 1, B: 1, C: 0},
		P:               0.5,
		MachineMemBytes: 1e9,
	}
	if _, err := m.RunAdaptive(mk(), cfg, 100, AdaptiveConfig{}); err == nil {
		t.Fatal("infeasible model must fail up front")
	}
}
