package engine

import (
	"testing"

	"vcmt/internal/graph"
	"vcmt/internal/vcapi"
)

// nopProg is a vertex program that never sends; the fuzz harness drives
// the delivery machinery directly.
type nopProg struct{}

func (nopProg) Seed(vcapi.Context[int32])                             {}
func (nopProg) Compute(vcapi.Context[int32], graph.VertexID, []int32) {}

// FuzzDeliverRouting decodes arbitrary bytes into a batch of envelopes
// emitted from per-machine sources and checks the counting-sort delivery
// invariants on both the sequential and the parallel path:
//
//   - every envelope lands in exactly one inbox segment — the segment of
//     its destination vertex — and no envelope is duplicated or dropped;
//   - segments are chunk-major stable: source machine order, then send
//     order;
//   - the parallel path produces a bit-identical inbox layout to the
//     sequential path (the determinism contract);
//   - after combining, each non-empty segment holds exactly one message,
//     the message count equals the number of non-empty inboxes, and a sum
//     combiner preserves the payload total.
func FuzzDeliverRouting(f *testing.F) {
	f.Add([]byte{8, 2, 0, 0, 1, 5, 2, 9, 0, 3})
	f.Add([]byte{120, 7, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{16, 1})
	f.Add([]byte{40, 4, 255, 255, 0, 0, 7, 200, 3, 3, 3, 3, 9, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 8 + int(data[0])%120
		k := 1 + int(data[1])%8
		g := graph.GenerateRing(n)
		part := graph.HashPartition(n, k)
		sum := func(a, b int32) int32 { return a + b }

		seq := New[int32](g, part, nopProg{}, nil, Options[int32]{
			Workers: 1, Combiner: sum, CombinerKey: oneKey[int32],
		})
		par := New[int32](g, part, nopProg{}, nil, Options[int32]{
			Workers: 4, Combiner: sum, CombinerKey: oneKey[int32],
		})
		defer par.stopPool()

		// Decode (machine, dst) pairs; payload is the send sequence number.
		// chunks[m] records machine m's emission stream for the expected
		// chunk-major order.
		var total int
		var paySum int64
		wantPerVertex := make([]int, n)
		chunks := make([][]envelope[int32], k)
		for i := 0; i+1 < len(data)-2; i += 2 {
			m := int(data[2+i]) % k
			dst := graph.VertexID(int(data[3+i]) % n)
			for _, eng := range []*Engine[int32]{seq, par} {
				eng.ctxs[m].Send(dst, int32(total))
			}
			chunks[m] = append(chunks[m], envelope[int32]{dst: dst, payload: int32(total)})
			wantPerVertex[dst]++
			paySum += int64(total)
			total++
		}

		// Close the emitting round the way observeRound does, so that the
		// barrier's conservation check sees what was sent.
		seq.rollCounters()
		par.rollCounters()
		seq.route()
		par.route()

		delivered := 0
		for v := 0; v < n; v++ {
			delivered += len(seq.segment(graph.VertexID(v)))
		}
		if delivered != total {
			t.Fatalf("inbox holds %d messages, %d were sent", delivered, total)
		}
		// Exactly-one-segment: per-vertex counts match the routing table and
		// sum to the total, so no envelope is lost, duplicated or misfiled.
		for v := 0; v < n; v++ {
			gotN := len(seq.segment(graph.VertexID(v)))
			if gotN != wantPerVertex[v] {
				t.Fatalf("vertex %d segment holds %d messages want %d", v, gotN, wantPerVertex[v])
			}
		}
		// Chunk-major stable order inside each segment: sequence numbers
		// must appear in (source machine, send order) — i.e. the same order
		// a single-outbox sequential engine would have appended them.
		for v := 0; v < n; v++ {
			var want []int32
			for m := 0; m < k; m++ {
				for _, env := range chunks[m] {
					if env.dst == graph.VertexID(v) {
						want = append(want, env.payload)
					}
				}
			}
			got := seq.segment(graph.VertexID(v))
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("vertex %d slot %d: payload %d want %d (stable order broken)",
						v, i, got[i], want[i])
				}
			}
		}
		// Parallel path must reproduce the sequential layout bit-for-bit.
		for v := 0; v < n; v++ {
			sv, pv := seq.segment(graph.VertexID(v)), par.segment(graph.VertexID(v))
			if len(sv) != len(pv) {
				t.Fatalf("vertex %d: segment length %d sequential vs %d parallel", v, len(sv), len(pv))
			}
			for i := range sv {
				if sv[i] != pv[i] {
					t.Fatalf("vertex %d slot %d: %d sequential vs %d parallel", v, i, sv[i], pv[i])
				}
			}
		}

		// Combiner invariants on both paths.
		nonEmpty := 0
		for v := 0; v < n; v++ {
			if wantPerVertex[v] > 0 {
				nonEmpty++
			}
		}
		for _, eng := range []*Engine[int32]{seq, par} {
			for i := 0; i < k; i++ {
				eng.runTask(phaseCombine, i)
			}
			combined := 0
			var got int64
			for v := 0; v < n; v++ {
				seg := eng.segment(graph.VertexID(v))
				combined += len(seg)
				if len(seg) > 1 {
					t.Fatalf("workers=%d: vertex %d still has %d messages after combining",
						eng.workers, v, len(seg))
				}
				if (len(seg) > 0) != (wantPerVertex[v] > 0) {
					t.Fatalf("workers=%d: vertex %d segment presence changed by combining", eng.workers, v)
				}
				for _, m := range seg {
					got += int64(m)
				}
			}
			if combined != nonEmpty {
				t.Fatalf("workers=%d: combined inbox holds %d messages, %d inboxes were non-empty",
					eng.workers, combined, nonEmpty)
			}
			if got != paySum {
				t.Fatalf("workers=%d: sum combiner lost mass: %d want %d", eng.workers, got, paySum)
			}
		}
	})
}

// Keyed-combine fuzz payloads carry their combiner key in the low four bits
// and a value above them; the combiner sums values within a key.
func fuzzKeyOf(p int32) uint64 { return uint64(p & 15) }

func fuzzKeyedSum(a, b int32) int32 { return a + b&^15 }

// FuzzKeyedFold drives the keyed delivery fold against a map model. The
// input decodes into rounds of runs — one (machine, dst, key) start expanded
// into up to 1009 sends that repeat the pair, walk the destinations, walk
// the keys or walk both — so a few bytes make segments with heavy
// duplication, all-same-key, all-distinct, and rows longer than a chunk.
// Every barrier starts each machine's fold table at its smallest size, one
// epoch short of wrapping, so tables grow mid-round and wrap. After
// deliver() every vertex's inbox must equal the model's: one representative
// per key, at the key's first occurrence in (source machine, emission)
// order, folded in that order.
func FuzzKeyedFold(f *testing.F) {
	// One pair repeated, a barrier, then a short mixed run.
	f.Add([]byte{100, 3, 0, 5, 1, 63, 0, 5, 1, 63, 250, 0, 0, 1, 9, 2, 127})
	// One machine, 127 vertices, 2018 distinct pairs (a row of two chunks),
	// then the first 1009 again (every one a merge).
	f.Add([]byte{119, 0, 0, 0, 0, 127, 0, 0, 8, 127, 0, 0, 0, 127})
	// Key walks on one vertex across four rounds: 1009-message segments.
	f.Add([]byte{40, 7, 1, 2, 3, 191, 240, 2, 2, 3, 191, 241, 3, 2, 3, 191, 242, 3, 2, 4, 130})
	// Eight machines, both walks, duplicated.
	f.Add([]byte{119, 7, 0, 0, 0, 255, 1, 0, 0, 255, 2, 9, 3, 255, 0, 0, 0, 255, 250, 1, 1, 63})
	// Three two-message segments and a single: the epoch wraps before the
	// table has to grow.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 0, 2, 1, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 8 + int(data[0])%120
		k := 1 + int(data[1])%8
		g := graph.GenerateRing(n)
		part := graph.HashPartition(n, k)
		e := New[int32](g, part, nopProg{}, nil, Options[int32]{
			Workers: 1, Combiner: fuzzKeyedSum, CombinerKey: fuzzKeyOf,
		})

		// The model's inbox: per vertex, one representative per key at its
		// first occurrence. sent[m] is machine m's emission stream.
		sent := make([][]envelope[int32], k)
		seq := int32(0)
		barrier := func() {
			want := make([][]int32, n)
			at := make([]map[uint64]int, n)
			for m := range sent {
				for _, env := range sent[m] {
					v, key := env.dst, fuzzKeyOf(env.payload)
					if at[v] == nil {
						at[v] = map[uint64]int{}
					}
					if i, ok := at[v][key]; ok {
						want[v][i] = fuzzKeyedSum(want[v][i], env.payload)
						continue
					}
					at[v][key] = len(want[v])
					want[v] = append(want[v], env.payload)
				}
				sent[m] = sent[m][:0]
			}
			for m := range e.foldTabs {
				e.foldTabs[m] = foldTable{slots: make([]foldEntry, 16), epoch: ^uint32(0) - 1}
			}
			e.rollCounters()
			e.deliver()
			for v := 0; v < n; v++ {
				got := e.segment(graph.VertexID(v))
				if len(got) != len(want[v]) {
					t.Fatalf("vertex %d: %d messages, model %d", v, len(got), len(want[v]))
				}
				for i := range got {
					if got[i] != want[v][i] {
						t.Fatalf("vertex %d slot %d: %d, model %d", v, i, got[i], want[v][i])
					}
				}
			}
		}

		for ops := data[2:]; len(ops) >= 4; ops = ops[4:] {
			if ops[0] >= 240 {
				barrier()
			}
			m := int(ops[0]) % k
			dst, key := int(ops[1])%n, uint64(ops[2])&15
			run, walk := 1+int(ops[3]&63)*16, ops[3]>>6
			for i := 0; i < run; i++ {
				seq++
				env := envelope[int32]{dst: graph.VertexID(dst), payload: seq<<4 | int32(key)}
				e.ctxs[m].Send(env.dst, env.payload)
				sent[m] = append(sent[m], env)
				if walk&1 != 0 {
					if dst++; dst == n {
						dst = 0
						key = (key + 1) & 15 // keep walking pairs distinct
					}
				}
				if walk&2 != 0 {
					key = (key + 1) & 15
				}
			}
		}
		barrier()
	})
}

// segment returns vertex v's delivered inbox slice for the current
// superstep (valid between route and the next round).
func (e *Engine[M]) segment(v graph.VertexID) []M {
	m := e.owners[v]
	i := e.rank[v]
	offs := e.moffs[m]
	base := e.regionStart[m]
	return e.inbox[base+offs[i] : base+offs[i+1]]
}
