package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// traceProg floods hop-limited messages along RNG-chosen edges and digests
// every Compute call it sees, per machine — so two runs with equal digests
// had equal inboxes, RNG streams and rounds on every machine.
type traceProg struct {
	hops   int32
	digest [8]uint64 // one lane per machine; machines compute concurrently
}

func (p *traceProg) Seed(ctx vcapi.Context[hopMsg]) {
	for _, v := range ctx.OwnedVertices() {
		ctx.Send(v, hopMsg{Hop: 1})
	}
}

func (p *traceProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {
	h := fnv.New64a()
	fmt.Fprint(h, p.digest[ctx.Machine()], ctx.Round(), v, msgs)
	ns := ctx.Graph().Neighbors(v)
	for _, m := range msgs {
		if m.Hop < p.hops {
			a, b := ctx.RNG().Intn(len(ns)), ctx.RNG().Intn(len(ns))
			fmt.Fprint(h, a, b)
			ctx.Send(ns[a], hopMsg{Hop: m.Hop + 1})
			ctx.Send(ns[b], hopMsg{Hop: m.Hop + 1})
		}
	}
	p.digest[ctx.Machine()] = h.Sum64()
}

// TestResetAcrossModes re-arms one engine through every execution mode in
// turn — including a run abandoned at its round bound with messages still
// buffered, and a switch out of core and back — and requires each run to
// match a fresh engine's exactly: same digest, rounds, priced result and
// error.
func TestResetAcrossModes(t *testing.T) {
	g := graph.GenerateChungLu(400, 1600, 2.5, 9)
	part := graph.HashPartition(g.NumVertices(), 4)
	minHop := func(a, b hopMsg) hopMsg {
		if b.Hop < a.Hop {
			return b
		}
		return a
	}
	parity := func(m hopMsg) uint64 { return uint64(m.Hop & 1) }
	modes := []struct {
		name string
		opts func(t *testing.T) Options[hopMsg]
	}{
		{name: "plain", opts: func(*testing.T) Options[hopMsg] { return Options[hopMsg]{Seed: 3} }},
		{name: "one-key", opts: func(*testing.T) Options[hopMsg] {
			return Options[hopMsg]{Seed: 4, Combiner: minHop, CombinerKey: oneKey[hopMsg]}
		}},
		{name: "aborted", opts: func(*testing.T) Options[hopMsg] {
			return Options[hopMsg]{Seed: 5, Combiner: minHop, CombinerKey: oneKey[hopMsg], MaxRounds: 3}
		}},
		{name: "keyed", opts: func(*testing.T) Options[hopMsg] {
			return Options[hopMsg]{Seed: 6, Combiner: minHop, CombinerKey: parity}
		}},
		{name: "ooc", opts: func(t *testing.T) Options[hopMsg] {
			return Options[hopMsg]{Seed: 8,
				Codec: hopCodec{}, OOC: &OOCOptions{Dir: t.TempDir(), Partitions: 3}}
		}},
		{name: "ooc-combine", opts: func(t *testing.T) Options[hopMsg] {
			return Options[hopMsg]{Seed: 9, Combiner: minHop, CombinerKey: parity,
				Codec: hopCodec{}, OOC: &OOCOptions{Dir: t.TempDir(), Partitions: 3}}
		}},
		{name: "keyed-again", opts: func(*testing.T) Options[hopMsg] {
			return Options[hopMsg]{Seed: 10, Combiner: minHop, CombinerKey: parity}
		}},
	}
	type outcome struct {
		digest [8]uint64
		rounds int
		res    sim.JobResult
		err    error
	}
	for _, workers := range []int{1, 4} {
		var reused *Engine[hopMsg]
		for _, mode := range modes {
			exec := func(fresh bool) outcome {
				prog := &traceProg{hops: 5}
				run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(4), System: sim.PregelPlus})
				run.BeginBatch()
				opts := mode.opts(t)
				opts.Workers = workers
				e := reused
				switch {
				case fresh || e == nil:
					e = New[hopMsg](g, part, prog, run, opts)
				default:
					e.Reset(prog, run, opts)
				}
				if !fresh {
					reused = e
				}
				err := e.Run()
				return outcome{prog.digest, e.Rounds(), run.Result(), err}
			}
			want, got := exec(true), exec(false)
			if (mode.name == "aborted") != errors.Is(want.err, ErrMaxRounds) {
				t.Fatalf("workers=%d %s: fresh run returned %v", workers, mode.name, want.err)
			}
			if fmt.Sprint(want.err) != fmt.Sprint(got.err) || want.digest != got.digest ||
				want.rounds != got.rounds || want.res != got.res {
				t.Fatalf("workers=%d %s: Reset diverged from a fresh engine:\nfresh %+v\nreset %+v", workers, mode.name, want, got)
			}
		}
	}
}

// creepProg sends vertex 0 a burst that grows by 5% a round for four rounds
// and records the inbox's backing array as each round sees it.
type creepProg struct {
	e     *Engine[hopMsg]
	first int
	bases []*hopMsg
}

func (p *creepProg) Seed(ctx vcapi.Context[hopMsg]) {
	if ctx.Machine() == 0 {
		for i := 0; i < p.first; i++ {
			ctx.Send(0, hopMsg{})
		}
	}
}

func (p *creepProg) Compute(ctx vcapi.Context[hopMsg], _ graph.VertexID, msgs []hopMsg) {
	p.bases = append(p.bases, &p.e.inbox[:1][0])
	if len(p.bases)%4 == 0 {
		return
	}
	for i := len(msgs) + len(msgs)/20; i > 0; i-- {
		ctx.Send(0, hopMsg{})
	}
}

// TestInboxHeadroomAbsorbsCreep pins what keeps a job's allocation from
// depending on the order of its rounds' sizes: maxima that exceed one
// another by a few percent — within a run and across Reset, a second batch
// starting 5% above the first — all fit the inbox the first maximum sized.
func TestInboxHeadroomAbsorbsCreep(t *testing.T) {
	g := graph.GenerateRing(8)
	part := graph.HashPartition(8, 2)
	prog := &creepProg{first: 1000}
	prog.e = New[hopMsg](g, part, prog, nil, Options[hopMsg]{})
	if err := prog.e.Run(); err != nil {
		t.Fatal(err)
	}
	prog.first = 1050
	prog.e.Reset(prog, nil, Options[hopMsg]{})
	if err := prog.e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(prog.bases) != 8 {
		t.Fatalf("saw %d rounds, want 8", len(prog.bases))
	}
	for i, b := range prog.bases {
		if b != prog.bases[0] {
			t.Fatalf("round %d re-allocated the inbox", i+1)
		}
	}
}
