package engine

import "math"

// Aggregators implement Pregel's global communication mechanism (§2.2 of
// the paper, after Malewicz et al.): every vertex may contribute a value
// during a superstep; the system reduces the contributions and makes the
// result of superstep S visible to all vertices in superstep S+1.
//
// The paper's systems use aggregators for convergence checks (e.g. "the
// process ends if in one round no shorter paths are found"); the engine's
// message-drain halting covers that case, and no task in this repository
// calls Aggregate; aggregators are kept as part of the programming contract
// real Pregel programs rely on, exercised by the engine's own tests.
//
// Each aggregator keeps one accumulation lane per logical machine, so
// parallel machines contribute without synchronization; the roll at the
// superstep barrier folds the lanes in machine order. The fold order is
// therefore fixed for every worker count, which keeps runs bit-identical
// across Options.Workers settings (for AggSum over floats the lane fold
// may differ from a strict contribution-order fold in the last ulp, but it
// never differs between worker counts).

// AggregatorKind selects the reduction.
type AggregatorKind int

// Supported reductions.
const (
	AggSum AggregatorKind = iota
	AggMin
	AggMax
)

// aggLane is one machine's private accumulator for a superstep.
type aggLane struct {
	current float64
	touched bool
}

type aggregator struct {
	kind    AggregatorKind
	lanes   []aggLane // one per logical machine
	visible float64   // result of the previous superstep
}

func (a *aggregator) zero() float64 {
	switch a.kind {
	case AggMin:
		return math.Inf(1)
	case AggMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

// add contributes v on machine m's lane.
func (a *aggregator) add(m int, v float64) {
	l := &a.lanes[m]
	if !l.touched {
		l.current = a.zero()
		l.touched = true
	}
	switch a.kind {
	case AggMin:
		if v < l.current {
			l.current = v
		}
	case AggMax:
		if v > l.current {
			l.current = v
		}
	default:
		l.current += v
	}
}

// roll folds the touched lanes in machine order into the visible value and
// resets the lanes for the next superstep.
func (a *aggregator) roll() {
	acc := a.zero()
	touched := false
	for m := range a.lanes {
		l := &a.lanes[m]
		if !l.touched {
			continue
		}
		touched = true
		switch a.kind {
		case AggMin:
			if l.current < acc {
				acc = l.current
			}
		case AggMax:
			if l.current > acc {
				acc = l.current
			}
		default:
			acc += l.current
		}
		l.touched = false
	}
	if touched {
		a.visible = acc
	} else {
		a.visible = a.zero()
	}
}

// RegisterAggregator declares a named aggregator before Run.
func (e *Engine[M]) RegisterAggregator(name string, kind AggregatorKind) {
	if e.aggs == nil {
		e.aggs = map[string]*aggregator{}
	}
	a := &aggregator{kind: kind, lanes: make([]aggLane, e.part.NumMachines())}
	a.visible = a.zero()
	e.aggs[name] = a
}

// AggregatorValue returns the final value of a named aggregator after Run
// (or the last superstep's value mid-run).
func (e *Engine[M]) AggregatorValue(name string) float64 {
	if a, ok := e.aggs[name]; ok {
		return a.visible
	}
	return 0
}

func (e *Engine[M]) rollAggregators() {
	for _, a := range e.aggs {
		a.roll()
	}
}

// Aggregate contributes a value to a named aggregator; the reduced result
// becomes visible via AggregatorGet in the next superstep. Contributions
// to unregistered names are dropped.
func (c *Context[M]) Aggregate(name string, v float64) {
	if a, ok := c.e.aggs[name]; ok {
		a.add(c.machine, v)
	}
}

// AggregatorGet reads the previous superstep's reduced value.
func (c *Context[M]) AggregatorGet(name string) float64 {
	if a, ok := c.e.aggs[name]; ok {
		return a.visible
	}
	return 0
}
