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
//     combiner preserves the payload total;
//   - an engine combining at send time ends up with segments bit-identical
//     to the delivery-time engines', before-compute and after-combine.
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

		seq := foldAtDelivery(New[int32](g, part, nopProg{}, nil, Options[int32]{
			Workers: 1, Combiner: sum,
		}))
		par := foldAtDelivery(New[int32](g, part, nopProg{}, nil, Options[int32]{
			Workers: 4, Combiner: sum,
		}))
		defer par.stopPool()
		send := New[int32](g, part, nopProg{}, nil, Options[int32]{
			Workers: 1, Combiner: sum,
		})
		if !send.combineAtSend {
			t.Fatal("send-time combining should be the default with a combiner")
		}

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
			env := envelope[int32]{dst: dst, payload: int32(total)}
			d := int(seq.owners[dst])
			for _, eng := range []*Engine[int32]{seq, par, send} {
				eng.sent[m].physical++ // what Context.Send would count
				buffer(eng, m, d, env)
			}
			chunks[m] = append(chunks[m], env)
			wantPerVertex[dst]++
			paySum += int64(total)
			total++
		}

		// Close the emitting round the way observeRound does, so that the
		// barrier's conservation check sees what was sent.
		for _, eng := range []*Engine[int32]{seq, par, send} {
			eng.rollCounters()
		}
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

		// Combiner invariants on both delivery-time paths, and send-time
		// equivalence: the send-time engine's routed-and-folded segments
		// must be bit-identical to the delivery-time result.
		nonEmpty := 0
		for v := 0; v < n; v++ {
			if wantPerVertex[v] > 0 {
				nonEmpty++
			}
		}
		send.route()
		for i := 0; i < k; i++ {
			send.runTask(phaseCombine, i)
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
				st := send.segment(graph.VertexID(v))
				if len(st) != len(seg) {
					t.Fatalf("vertex %d: send-time segment length %d vs delivery-time %d", v, len(st), len(seg))
				}
				for i := range seg {
					if st[i] != seg[i] {
						t.Fatalf("vertex %d: send-time payload %d vs delivery-time %d", v, st[i], seg[i])
					}
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

// rowEnvelopes flattens a chunked outbox row.
func rowEnvelopes[M any](r *outRow[M]) []envelope[M] {
	var out []envelope[M]
	for ci := range r.chunks {
		out = append(out, r.filled(ci)...)
	}
	return out
}

// FuzzKeyedSendTable drives the open-addressed send table and the fold
// table against a map model. The input decodes into rounds of runs — one
// (machine, dst, key) start expanded into up to 1009 emits that repeat the
// pair, walk the destinations, walk the keys or walk both — so a few bytes
// make streams with heavy duplication, all-same-key, all-distinct, rows
// longer than a chunk and more pairs than the table's initial capacity
// (growth mid-round). The table generations start one short of wrapping.
// At every barrier the outbox rows must equal the model's — same slots in
// the same order with the same folded payloads, which pins every slot
// position the table handed out — with the same merge count; and after
// routing and folding, the inbox of the send-time engine, of a
// delivery-time engine fed the raw stream, and of the model must agree.
func FuzzKeyedSendTable(f *testing.F) {
	// One pair repeated, a barrier, then a short mixed run.
	f.Add([]byte{100, 3, 0, 5, 1, 63, 0, 5, 1, 63, 250, 0, 0, 1, 9, 2, 127})
	// One machine, 127 vertices, 2018 distinct pairs (two table growths, a
	// row of two chunks), then the first 1009 again (all merges).
	f.Add([]byte{119, 0, 0, 0, 0, 127, 0, 0, 8, 127, 0, 0, 0, 127})
	// Key walks on one vertex across four rounds: the generations wrap.
	f.Add([]byte{40, 7, 1, 2, 3, 191, 240, 2, 2, 3, 191, 241, 3, 2, 3, 191, 242, 3, 2, 4, 130})
	// Eight machines, both walks, duplicated.
	f.Add([]byte{119, 7, 0, 0, 0, 255, 1, 0, 0, 255, 2, 9, 3, 255, 0, 0, 0, 255, 250, 1, 1, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 8 + int(data[0])%120
		k := 1 + int(data[1])%8
		g := graph.GenerateRing(n)
		part := graph.HashPartition(n, k)
		send := New[int32](g, part, nopProg{}, nil, Options[int32]{
			Workers: 1, Combiner: fuzzKeyedSum, CombinerKey: fuzzKeyOf,
		})
		deliv := foldAtDelivery(New[int32](g, part, nopProg{}, nil, Options[int32]{
			Workers: 1, Combiner: fuzzKeyedSum, CombinerKey: fuzzKeyOf,
		}))
		for m := range send.sendTabs {
			send.sendTabs[m].gen = sendGenMax - 1
		}
		for _, eng := range []*Engine[int32]{send, deliv} {
			for m := range eng.foldTabs {
				eng.foldTabs[m] = foldTable{slots: make([]foldEntry, 64), epoch: ^uint32(0) - 2}
			}
		}

		type pair struct {
			dst graph.VertexID
			key uint64
		}
		type slot struct{ row, pos int }
		rows := make([][]envelope[int32], k*k) // the model's outbox
		where := make([]map[pair]slot, k)      // the model's send tables
		merged := make([]int64, k)
		for m := range where {
			where[m] = map[pair]slot{}
		}
		seq := int32(0)
		emit := func(m int, dst graph.VertexID, key uint64) {
			seq++
			env := envelope[int32]{dst: dst, payload: seq<<4 | int32(key)}
			d := int(send.owners[dst])
			for _, eng := range []*Engine[int32]{send, deliv} {
				eng.sent[m].physical++
				buffer(eng, m, d, env)
			}
			p := pair{dst, key}
			if s, ok := where[m][p]; ok {
				rows[s.row][s.pos].payload = fuzzKeyedSum(rows[s.row][s.pos].payload, env.payload)
				merged[m]++
				return
			}
			where[m][p] = slot{m*k + d, len(rows[m*k+d])}
			rows[m*k+d] = append(rows[m*k+d], env)
		}
		barrier := func() {
			for r := range rows {
				got := rowEnvelopes(&send.outRows[r])
				if len(got) != len(rows[r]) {
					t.Fatalf("row %d holds %d envelopes, model %d", r, len(got), len(rows[r]))
				}
				for i := range got {
					if got[i] != rows[r][i] {
						t.Fatalf("row %d slot %d: %+v, model %+v", r, i, got[i], rows[r][i])
					}
				}
			}
			for m := 0; m < k; m++ {
				if send.combinedSend[m] != merged[m] {
					t.Fatalf("machine %d merged %d at send, model %d", m, send.combinedSend[m], merged[m])
				}
			}
			// The model's inbox: per vertex, rows in source order, one
			// representative per key at its first occurrence.
			want := make([][]int32, n)
			at := make([]map[uint64]int, n)
			for r := range rows {
				for _, env := range rows[r] {
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
			}
			for _, eng := range []*Engine[int32]{send, deliv} {
				eng.rollCounters()
				eng.deliver()
				for v := 0; v < n; v++ {
					got := eng.segment(graph.VertexID(v))
					if len(got) != len(want[v]) {
						t.Fatalf("atSend=%v vertex %d: %d messages, model %d", eng.combineAtSend, v, len(got), len(want[v]))
					}
					for i := range got {
						if got[i] != want[v][i] {
							t.Fatalf("atSend=%v vertex %d slot %d: %d, model %d", eng.combineAtSend, v, i, got[i], want[v][i])
						}
					}
				}
			}
			for r := range rows {
				rows[r] = rows[r][:0]
			}
			for m := range where {
				clear(where[m])
				merged[m] = 0
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
				emit(m, graph.VertexID(dst), key)
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
