package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"vcmt/internal/obs"
	"vcmt/internal/sim"
)

// probe is what a pass reports into when it is not a bare timed pass. A nil
// *probe is "off": every method is a no-op, so the timed passes of an
// untraced run carry no instrumentation at all. A probe without a tracer
// only counts (the warm-up pass, where the exact counts come from); with a
// tracer it also records a wall-clock span around every call into a layer.
//
// All spans are stamped from the probe's own clock through the tracer's
// explicit-timestamp calls, so parents and children never disagree by a
// clock read.
type probe struct {
	tr    *obs.Tracer
	epoch time.Time
	// keep marks the warm-up pass's probe: the pass hands its outputs to the
	// workload (for the oracles and the exact counts) and every superstep's
	// RoundStats is kept for replay through a fresh sim.Run (sim.price_s).
	// Timed passes keep nothing, so they all run against the same heap.
	keep bool

	eng        engineCounts
	stepWalls  []float64 // wall-clock of every superstep seen
	firstSteps []float64 // RunBatch entry -> first OnRound, per batch
	priced     []*pricedJob
}

// engineCounts are the per-superstep counters sim.RoundObservation.Stats
// carries, summed. They repeat exactly for one (commit, workload, seed).
type engineCounts struct {
	supersteps, logical, physical, combinedAtSend, active int64
}

// pricedJob is one job's cost configuration and the rounds it priced.
type pricedJob struct {
	cfg    sim.JobConfig
	rounds []sim.RoundStats
}

func (p *probe) us(t time.Time) int64 { return t.Sub(p.epoch).Microseconds() }

// begin opens a span named after the call it wraps; cat is the module the
// time is charged to.
func (p *probe) begin(parent obs.SpanID, track int, cat, name string) obs.SpanID {
	if p == nil {
		return 0
	}
	return p.tr.BeginAt(parent, name, cat, 0, track, p.us(time.Now()))
}

func (p *probe) end(id obs.SpanID) {
	if p == nil {
		return
	}
	p.tr.EndAt(id, p.us(time.Now()))
}

// roundObserver sits between a sim.Run and the obs.Collector: it times the
// gap between consecutive OnRound callbacks (one superstep of engine work,
// including the cost model's pricing, which runs before the callback) and
// the collector's own callbacks, and sums the engine's counters.
type roundObserver struct {
	p      *probe
	inner  sim.Observer
	track  int
	parent obs.SpanID // the open batch span
	last   time.Time  // when the engine last got control back
	first  bool       // no superstep of this batch has ended yet
	job    *pricedJob
}

func (ro *roundObserver) OnBatchStart(batch int, simSeconds float64) {
	t0 := time.Now()
	ro.inner.OnBatchStart(batch, simSeconds)
	ro.last = time.Now()
	ro.first = true
	ro.p.tr.Add(ro.parent, "collect", "obs", 0, ro.track, ro.p.us(t0), ro.p.us(ro.last)-ro.p.us(t0))
}

func (ro *roundObserver) OnRound(o sim.RoundObservation) {
	p := ro.p
	now := time.Now()
	wall := now.Sub(ro.last).Seconds()
	p.stepWalls = append(p.stepWalls, wall)
	if ro.first {
		p.firstSteps = append(p.firstSteps, wall)
		ro.first = false
	}
	logical := o.Stats.TotalSentLogical()
	p.eng.supersteps++
	p.eng.logical += logical
	p.eng.physical += o.Stats.TotalSentPhysical()
	p.eng.combinedAtSend += o.Stats.CombinedAtSend
	p.eng.active += o.Stats.TotalActive()
	if ro.job != nil {
		// The engine reuses the per-machine slice between supersteps.
		rs := o.Stats
		rs.PerMachine = append([]sim.MachineRound(nil), rs.PerMachine...)
		ro.job.rounds = append(ro.job.rounds, rs)
	}
	if p.tr != nil {
		p.tr.Add(ro.parent, "superstep", "engine", 0, ro.track, p.us(ro.last), p.us(now)-p.us(ro.last),
			obs.L("round", strconv.Itoa(o.Round)), obs.L("msgs", strconv.FormatInt(logical, 10)))
	}
	ro.inner.OnRound(o)
	ro.last = time.Now()
	p.tr.Add(ro.parent, "collect", "obs", 0, ro.track, p.us(now), p.us(ro.last)-p.us(now))
}

// scopeNames are the spans that partition a run; every other span belongs
// to the nearest one above it.
var scopeNames = map[string]bool{"setup": true, "twins": true, "warm-up": true, "pass": true, "extras": true}

// spanSet is a finished trace indexed for the layer table.
type spanSet struct {
	spans []obs.Span
	scope []string // nearest enclosing scope span's name, "" outside all
	self  []int64  // duration minus the part covered by child spans, in µs
	// adopted marks spans another layer recorded under its own root
	// (rpcrt's job trees); they belong to the scope span they started in.
	// Their children run in parallel, so they stay out of the self-time
	// table.
	adopted []bool
}

func analyze(spans []obs.Span) *spanSet {
	s := &spanSet{spans: spans, scope: make([]string, len(spans)), self: make([]int64, len(spans)), adopted: make([]bool, len(spans))}
	index := make(map[obs.SpanID]int, len(spans))
	for i, sp := range spans {
		index[sp.ID] = i
		s.self[i] = sp.DurUS
	}
	var scopes []int
	for i, sp := range spans {
		if scopeNames[sp.Name] {
			scopes = append(scopes, i)
		}
	}
	for i, sp := range spans {
		if j, ok := index[sp.Parent]; ok {
			s.self[j] -= sp.DurUS
		}
		root := i
		for cur, ok := i, true; ok; cur, ok = index[spans[cur].Parent] {
			if scopeNames[spans[cur].Name] {
				s.scope[i] = spans[cur].Name
				break
			}
			root = cur
		}
		if s.scope[i] != "" || spans[root].Name == "run" {
			continue
		}
		at, best := spans[root].StartUS, -1
		for _, j := range scopes {
			if spans[j].StartUS <= at && at <= spans[j].End() && (best < 0 || spans[j].DurUS < spans[best].DurUS) {
				best = j
			}
		}
		if best >= 0 {
			s.scope[i], s.adopted[i] = spans[best].Name, true
		}
	}
	return s
}

// count returns how many spans lie inside the given scope, the scope spans
// themselves included.
func (s *spanSet) count(scope string) int {
	n := 0
	for _, sc := range s.scope {
		if sc == scope {
			n++
		}
	}
	return n
}

// durations returns the durations in seconds of every span with the given
// name inside the given scope.
func (s *spanSet) durations(scope, name string) []float64 {
	var out []float64
	for i, sp := range s.spans {
		if s.scope[i] == scope && sp.Name == name {
			out = append(out, float64(sp.DurUS)/1e6)
		}
	}
	return out
}

func (s *spanSet) total(scope, name string) float64 { return sum(s.durations(scope, name)) }

// unattributed is the share of pass wall-clock no child span covers.
func (s *spanSet) unattributed() float64 {
	var self, dur int64
	for i, sp := range s.spans {
		if sp.Name == "pass" {
			self += s.self[i]
			dur += sp.DurUS
		}
	}
	return ratio(float64(self), float64(dur))
}

// writeLayerTable prints, per module and call, the self time spent inside
// the traced passes and its share of their wall-clock.
func (s *spanSet) writeLayerTable(w io.Writer, passes int) {
	type key struct{ cat, name string }
	type row struct {
		key
		n    int
		self int64
	}
	rows := map[key]*row{}
	var passDur int64
	for i, sp := range s.spans {
		if s.scope[i] != "pass" || s.adopted[i] {
			continue
		}
		if sp.Name == "pass" {
			passDur += sp.DurUS
		}
		k := key{sp.Cat, sp.Name}
		if rows[k] == nil {
			rows[k] = &row{key: k}
		}
		rows[k].n++
		rows[k].self += s.self[i]
	}
	sorted := make([]*row, 0, len(rows))
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self > sorted[j].self })
	fmt.Fprintf(w, "layer table: self time inside %d traced passes (pass self = unattributed)\n", passes)
	fmt.Fprintf(w, "  %-8s %-14s %8s %12s %7s\n", "module", "span", "spans", "self s/pass", "share")
	for _, r := range sorted {
		fmt.Fprintf(w, "  %-8s %-14s %8d %12.6f %6.2f%%\n", r.cat, r.name, r.n,
			float64(r.self)/1e6/float64(passes), 100*ratio(float64(r.self), float64(passDur)))
	}
}
