package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel execution support. The engine runs each superstep's per-machine
// work (Seed/Compute plus the per-destination counting sorts and combiner
// folds) on a persistent worker pool while preserving the sequential
// engine's determinism contract: all mutable state is partitioned by
// logical machine (outbox rows, counters, RNG streams, inbox regions), and
// every cross-machine merge walks the partitions in machine order. The parallel and sequential paths
// therefore produce bit-identical message streams, round statistics and
// results.
//
// The pool is phase-dispatched: workers are started once per run and woken
// with a phase kind; tasks are machine indices handed out through an atomic
// counter in load-ordered (LPT) sequence. No closures are created per
// round, so parallel supersteps stay allocation-free too.

// parallelDeliverMin is the message count below which delivery and the
// combiner fold stay on one goroutine; tiny rounds are cheaper sequentially
// than the pool handoff. Both paths produce identical inbox layouts, so the
// threshold never affects results.
const parallelDeliverMin = 4096

// effectiveWorkers resolves Options.Workers: 0 means GOMAXPROCS, and the
// out-of-core backend, whose partition files are one global
// emission-ordered byte stream, forces one worker.
func effectiveWorkers[M any](opts Options[M]) int {
	if opts.OOC != nil {
		return 1
	}
	if opts.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return opts.Workers
}

// phaseKind names the per-machine task a pool wake-up executes.
type phaseKind int

const (
	phaseSeed phaseKind = iota
	phaseDeliver
	phaseCombine
	phaseCompute
)

// phasePool is the persistent worker pool: one goroutine per worker,
// parked on its start channel between phases. n and the task state live on
// the engine; the channel send publishes them (happens-before) to the
// workers.
type phasePool struct {
	start    []chan phaseKind
	wg       sync.WaitGroup
	next     atomic.Int64
	n        int
	mu       sync.Mutex
	panicVal any
}

// runTask executes one machine-indexed task of the given phase. Delivery,
// combine and compute consult machOrder so heavy machines start first;
// seeding has no load estimate yet and runs in index order.
func (e *Engine[M]) runTask(kind phaseKind, i int) {
	switch kind {
	case phaseSeed:
		m := e.local[i]
		e.prog.Seed(e.ctxs[m])
		e.active[m] += int64(len(e.vertsByMachine[m]))
	case phaseDeliver:
		e.deliverMachine(int(e.machOrder[i]))
	case phaseCombine:
		e.combineMachine(int(e.machOrder[i]))
	case phaseCompute:
		e.computeMachine(int(e.machOrder[i]))
	}
}

// runPhase executes tasks 0..n-1 of one phase, on the pool when it pays
// off and inline otherwise. Panics in tasks are re-raised on the calling
// goroutine, matching sequential behaviour.
func (e *Engine[M]) runPhase(kind phaseKind, n int) {
	if e.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			e.runTask(kind, i)
		}
		return
	}
	p := e.pool
	if p == nil {
		p = &phasePool{start: make([]chan phaseKind, e.workers)}
		for t := range p.start {
			ch := make(chan phaseKind, 1)
			p.start[t] = ch
			go e.poolWorker(p, ch)
		}
		e.pool = p
	}
	p.n = n
	p.next.Store(0)
	p.wg.Add(len(p.start))
	for _, ch := range p.start {
		ch <- kind
	}
	p.wg.Wait()
	if p.panicVal != nil {
		r := p.panicVal
		p.panicVal = nil
		panic(r)
	}
}

// stopPool retires the worker goroutines (idempotent; the pool respawns
// lazily if the engine runs again).
func (e *Engine[M]) stopPool() {
	if e.pool == nil {
		return
	}
	for _, ch := range e.pool.start {
		close(ch)
	}
	e.pool = nil
}

func (e *Engine[M]) poolWorker(p *phasePool, ch chan phaseKind) {
	for kind := range ch {
		e.drainTasks(p, kind)
		p.wg.Done()
	}
}

// drainTasks pulls task indices until the phase is exhausted. A panicking
// task stops this worker's participation in the phase (its recover is
// recorded for runPhase to re-raise); the remaining workers keep draining,
// matching the historical fan-out semantics.
func (e *Engine[M]) drainTasks(p *phasePool, kind phaseKind) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.panicVal == nil {
				p.panicVal = r
			}
			p.mu.Unlock()
		}
	}()
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		e.runTask(kind, i)
	}
}
