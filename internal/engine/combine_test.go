package engine

import (
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/sim"
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

// foldAtDelivery turns send-time combining off on a freshly built or Reset
// engine: every message is buffered raw and each inbox is folded only at
// delivery, the timing the OOC backend uses. It is the in-memory reference
// the send-time tests compare against; no option selects it.
func foldAtDelivery[M any](e *Engine[M]) *Engine[M] {
	e.combineAtSend = false
	e.fastEmit = true
	return e
}

// buffer puts env in machine src's outbox the way Context.Send does once it
// has counted the message.
func buffer[M any](e *Engine[M], src, dstM int, env envelope[M]) {
	if e.fastEmit {
		e.ctxs[src].rows[dstM].push(env)
		return
	}
	e.emit(src, dstM, env)
}

// TestKeyedCombinerGroupsPerKey checks that CombinerKey restricts the fold
// to same-key messages: vertex 7 must receive exactly one message per key,
// and the identical result must come out of both combine timings.
func TestKeyedCombinerGroupsPerKey(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 4)
	for _, atDelivery := range []bool{false, true} {
		prog := &keyedProg{}
		e := New[hopMsg](g, part, prog, nil, keyedOptions())
		if atDelivery {
			foldAtDelivery(e)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(prog.got) != 2 {
			t.Fatalf("atDelivery=%v: want one message per key (2), got %d", atDelivery, len(prog.got))
		}
		// Sum of 0..9 except 7 is 38; key k's representative carries k*100.
		for i, want := range []int32{138, 238} {
			if prog.got[i].Hop != want {
				t.Fatalf("atDelivery=%v: message %d = %d want %d", atDelivery, i, prog.got[i].Hop, want)
			}
		}
	}
}

// TestSendTimeCombiningIsDefault checks the timing selection logic: a
// combiner alone opts into send-time merging, and the OOC backend always
// combines at delivery (routed records cannot be merged retroactively).
func TestSendTimeCombiningIsDefault(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 2)
	sum := func(a, b hopMsg) hopMsg { return hopMsg{Hop: a.Hop + b.Hop} }

	if e := New[hopMsg](g, part, &combSumProg{}, nil, Options[hopMsg]{Combiner: sum}); !e.combineAtSend {
		t.Fatal("combiner alone should combine at send time")
	}
	if e := New[hopMsg](g, part, &combSumProg{}, nil, Options[hopMsg]{
		Combiner: sum,
		OOC:      &OOCOptions[hopMsg]{Codec: hopCodec{}, Dir: t.TempDir()},
	}); e.combineAtSend {
		t.Fatal("the OOC backend must combine at delivery")
	}
}

// TestCombinedAtSendStatFlowsToObserver checks that the merge counter
// reaches sim.RoundStats for send-time runs and stays zero for
// delivery-time runs (the counter must never leak into reports, but it
// must be visible to the observer hook for the metrics registry).
func TestCombinedAtSendStatFlowsToObserver(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 4)
	run := func(atDelivery bool) int64 {
		rec := &statObserver{}
		r := sim.NewRun(sim.JobConfig{
			Cluster:  sim.Galaxy8.WithMachines(4),
			System:   sim.PregelPlus,
			Observer: rec,
		})
		r.BeginBatch()
		e := New[hopMsg](g, part, &keyedProg{}, r, keyedOptions())
		if atDelivery {
			foldAtDelivery(e)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.combined
	}
	atSend := run(false)
	// 9 vertices send 2 messages each; 2 survive per key pair on each
	// source machine, so some merges must have happened.
	if atSend <= 0 {
		t.Fatalf("send-time run reported %d merges, want > 0", atSend)
	}
	if atDelivery := run(true); atDelivery != 0 {
		t.Fatalf("delivery-time run reported %d send-time merges, want 0", atDelivery)
	}
}

type statObserver struct{ combined int64 }

func (s *statObserver) OnBatchStart(int, float64) {}
func (s *statObserver) OnRound(o sim.RoundObservation) {
	s.combined += o.Stats.CombinedAtSend
}

// TestSendTableTagCollisionAcrossRows pins the one case where a send-table
// candidate is not the pair being sent: two pairs with the same table index
// and the same 16-bit tag whose destinations live on different machines.
// The entry names a position in the other pair's row, which may be past the
// end of this one (first phase) or hold an unrelated envelope (second
// phase); either way the second pair must get its own slot and later sends
// of both pairs must merge into the right one.
func TestSendTableTagCollisionAcrossRows(t *testing.T) {
	const n, k = 64, 4
	g := graph.GenerateRing(n)
	part := graph.HashPartition(n, k)
	keyOf := func(p int32) uint64 { return uint64(p & 1023) }
	e := New[int32](g, part, nopProg{}, nil, Options[int32]{
		Workers: 1, CombinerKey: keyOf,
		Combiner: func(a, b int32) int32 { return a + b&^1023 },
	})

	// Birthday search over 64 × 512 pairs for a 26-bit (index, tag) match.
	type pair struct {
		dst graph.VertexID
		key int32
	}
	seen := map[uint64]pair{}
	var a, b pair
	found := false
	for dst := graph.VertexID(0); dst < n && !found; dst++ {
		for key := int32(0); key < 512 && !found; key++ {
			h := hashPair(dst, uint64(key))
			sig := h&(sendTableMinCap-1) | h>>48<<32
			if p, ok := seen[sig]; ok && e.owners[p.dst] != e.owners[dst] {
				a, b, found = p, pair{dst, key}, true
			}
			seen[sig] = pair{dst, key}
		}
	}
	if !found {
		t.Fatal("no colliding pair on different machines; widen the search")
	}

	send := func(p pair, value int32) {
		e.sent[0].physical++
		e.emit(0, int(e.owners[p.dst]), envelope[int32]{dst: p.dst, payload: value<<10 | p.key})
	}
	// filler returns the i-th pair on machine m that is neither a nor b.
	filler := func(m int32, i int) pair {
		for dst := graph.VertexID(0); ; dst++ {
			if e.owners[dst] == m && dst != a.dst && dst != b.dst {
				return pair{dst, 600 + int32(i)}
			}
		}
	}
	rowA, rowB := &e.outRows[e.owners[a.dst]], &e.outRows[e.owners[b.dst]]
	for phase, bFillers := range []int{0, 5} {
		for i := 0; i < 3; i++ {
			send(filler(e.owners[a.dst], i), 1)
		}
		for i := 0; i < bFillers; i++ {
			send(filler(e.owners[b.dst], i), 1)
		}
		send(a, 1) // position 3 of its row
		send(b, 2) // finds a's entry first
		send(b, 4)
		send(a, 8)
		if rowA.n != 4 || rowB.n != bFillers+1 {
			t.Fatalf("phase %d: rows hold %d and %d envelopes, want 4 and %d", phase, rowA.n, rowB.n, bFillers+1)
		}
		if got := *rowA.at(3); got.dst != a.dst || got.payload != 9<<10|a.key {
			t.Fatalf("phase %d: a's slot holds %+v", phase, got)
		}
		if got := *rowB.at(uint32(bFillers)); got.dst != b.dst || got.payload != 6<<10|b.key {
			t.Fatalf("phase %d: b's slot holds %+v", phase, got)
		}
		if e.combinedSend[0] != 2 {
			t.Fatalf("phase %d: %d merges, want 2", phase, e.combinedSend[0])
		}
		e.rollCounters()
		e.route()
	}
}

// TestBarrierConservationPanics checks that the always-on conservation
// assertion fires when an outbox row holds an envelope nobody counted as
// sent — a state only an engine bug can produce.
func TestBarrierConservationPanics(t *testing.T) {
	g := graph.GenerateRing(10)
	part := graph.HashPartition(10, 2)
	e := New[int32](g, part, nopProg{}, nil, Options[int32]{Workers: 1})
	buffer(e, 0, int(e.owners[3]), envelope[int32]{dst: 3, payload: 1})
	e.rollCounters()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("route accepted an uncounted envelope")
		}
	}()
	e.route()
}
