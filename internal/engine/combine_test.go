package engine

import (
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/vcapi"
)

// keyedProg sends two distinct streams (keys 1 and 2) from every vertex to
// vertex 7 and records the combined inbox.
type keyedProg struct{ got []hopMsg }

// keyed messages reuse hopMsg with Hop encoding key*100 + value.
func (p *keyedProg) Seed(ctx vcapi.Context[hopMsg]) {
	c := ctx.(*Context[hopMsg])
	for _, v := range c.OwnedVertices() {
		if v == 7 {
			continue
		}
		c.Send(7, hopMsg{Hop: 100 + int32(v)}) // key 1, value v
		c.Send(7, hopMsg{Hop: 200 + int32(v)}) // key 2, value v
	}
}

func (p *keyedProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {
	p.got = append(p.got, msgs...)
}

func keyedOptions() Options[hopMsg] {
	return Options[hopMsg]{
		// Sum values within a key, preserving the key's hundreds digit.
		Combiner: func(a, b hopMsg) hopMsg {
			return hopMsg{Hop: a.Hop + b.Hop%100}
		},
		CombinerKey: func(m hopMsg) uint64 { return uint64(m.Hop / 100) },
	}
}

// TestKeyedCombinerGroupsPerKey checks that CombinerKey restricts the fold
// to same-key messages: vertex 7 must receive exactly one message per key,
// at the key's first occurrence.
func TestKeyedCombinerGroupsPerKey(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 4)
	prog := &keyedProg{}
	e := New[hopMsg](g, part, prog, nil, keyedOptions())
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(prog.got) != 2 {
		t.Fatalf("want one message per key (2), got %d", len(prog.got))
	}
	// Sum of 0..9 except 7 is 38; key k's representative carries k*100.
	for i, want := range []int32{138, 238} {
		if prog.got[i].Hop != want {
			t.Fatalf("message %d = %d want %d", i, prog.got[i].Hop, want)
		}
	}
}

// TestBarrierConservationPanics checks that the always-on conservation
// assertion fires when an outbox row holds an envelope nobody counted as
// sent — a state only an engine bug can produce.
func TestBarrierConservationPanics(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 2)
	e := New[int32](g, part, nopProg{}, nil, Options[int32]{Workers: 1})
	e.ctxs[0].Send(3, 1)
	e.counters[0] = machineCounters{}
	e.rollCounters()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("route accepted an uncounted envelope")
		}
	}()
	e.route()
}

// combSumProg sends several messages to one vertex and records how many
// arrive after combining.
type combSumProg struct {
	got   []hopMsg
	round int
}

func (p *combSumProg) Seed(ctx vcapi.Context[hopMsg]) {
	c := ctx.(*Context[hopMsg])
	for _, v := range c.OwnedVertices() {
		if v != 7 {
			c.Send(7, hopMsg{Hop: int32(v)})
		}
	}
}

func (p *combSumProg) Compute(ctx vcapi.Context[hopMsg], v graph.VertexID, msgs []hopMsg) {
	p.got = append(p.got, msgs...)
}

func TestCombinerReducesInbox(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 4)
	prog := &combSumProg{}
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{
		Combiner: func(a, b hopMsg) hopMsg { return hopMsg{Hop: a.Hop + b.Hop} },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(prog.got) != 1 {
		t.Fatalf("combined inbox should hold 1 message, got %d", len(prog.got))
	}
	// Sum of 0..9 except 7 = 45 - 7 = 38.
	if prog.got[0].Hop != 38 {
		t.Fatalf("combined sum %d want 38", prog.got[0].Hop)
	}
}

func TestCombinerPreservesBFS(t *testing.T) {
	// A min-combiner must not change BFS results.
	g := graph.GenerateChungLu(300, 1200, 2.5, 9)
	ref := runBFS(t, g, 4)
	part := graph.HashPartition(300, 4)
	prog := newBFS(300, 0)
	e := New[hopMsg](g, part, prog, nil, Options[hopMsg]{
		Combiner: func(a, b hopMsg) hopMsg {
			if a.Hop < b.Hop {
				return a
			}
			return b
		},
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for v := range ref.dist {
		if prog.dist[v] != ref.dist[v] {
			t.Fatalf("combiner changed BFS at %d", v)
		}
	}
}
