package engine

import "vcmt/internal/graph"

// sendTable finds, for one source machine, the outbox slot already holding
// a (destination vertex, combiner key) pair this superstep. It is an exact
// open-addressed table with linear probing over hashPair(dst, key); one
// entry is a single word,
//
//	generation (16 bits) | hash tag (16 bits) | position in the row (32 bits)
//
// and names a slot without storing the pair: the row follows from
// owners[dst], and a candidate (live generation, equal tag) is confirmed
// against the buffered envelope's own dst and key. An entry of another
// generation is empty, so the per-round reset is a counter bump — the same
// device as the unkeyed sendSeen/sendGen arrays — and the slots are cleared
// only when the 16-bit generation wraps, once in 65 535 rounds. The table
// doubles when it would pass half full and never shrinks, so a job's later
// rounds and batches neither grow nor clear it.
type sendTable struct {
	slots []uint64
	gen   uint32 // 1..sendGenMax; 0 marks never-written slots
	live  int    // entries of the current generation
}

const (
	sendGenMax      = 1<<16 - 1
	sendTableMinCap = 1 << 10
)

// hashPair mixes a (vertex, key) pair; the low bits index the table and the
// top 16 are the entry's tag.
func hashPair(dst graph.VertexID, key uint64) uint64 {
	x := (key ^ uint64(dst)<<32 ^ uint64(dst)) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>32
}

// nextRound invalidates every entry.
func (t *sendTable) nextRound() {
	t.live = 0
	t.gen++
	if t.gen > sendGenMax {
		clear(t.slots)
		t.gen = 1
	}
}

// insert records pos for a pair known to be absent (hash h), without a
// capacity check.
func (t *sendTable) insert(h uint64, pos int) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for uint32(t.slots[i]>>48) == t.gen {
		i = (i + 1) & mask
	}
	t.slots[i] = uint64(t.gen)<<48 | h>>48<<32 | uint64(uint32(pos))
	t.live++
}

// emitKeyed is the keyed send-time combine: merge env into the slot its
// (dst, key) pair already owns in row r of machine src, or append it and
// record the new slot.
func (e *Engine[M]) emitKeyed(src int, r *outRow[M], env envelope[M]) {
	t := &e.sendTabs[src]
	if 2*(t.live+1) > len(t.slots) {
		e.growSendTable(src)
	}
	keyOf := e.opts.CombinerKey
	key := keyOf(env.payload)
	h := hashPair(env.dst, key)
	want := t.gen<<16 | uint32(h>>48)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		stamp := uint32(s >> 32)
		if stamp>>16 != t.gen {
			t.slots[i] = uint64(want)<<32 | uint64(uint32(r.n))
			t.live++
			r.push(env)
			return
		}
		if stamp != want {
			continue
		}
		// The candidate may be another pair's entry with an equal tag, and
		// that pair may live in another row: its position need not exist
		// in r. Whatever envelope does sit there decides — a pair owns
		// exactly one slot, so equal (dst, key) means it is ours.
		pos := uint32(s)
		if int(pos) >= r.n {
			continue
		}
		if slot := r.at(pos); slot.dst == env.dst && keyOf(slot.payload) == key {
			slot.payload = e.opts.Combiner(slot.payload, env.payload)
			e.combinedSend[src]++
			return
		}
	}
}

// growSendTable doubles machine src's table. The live entries are exactly
// the envelopes buffered in src's rows, so the new table is rebuilt from
// the rows and the old slots are dropped unread.
func (e *Engine[M]) growSendTable(src int) {
	t := &e.sendTabs[src]
	t.slots = make([]uint64, max(2*len(t.slots), sendTableMinCap))
	t.live = 0
	keyOf := e.opts.CombinerKey
	for d := 0; d < e.k; d++ {
		r := &e.outRows[src*e.k+d]
		pos := 0
		for ci := range r.chunks {
			for _, env := range r.filled(ci) {
				t.insert(hashPair(env.dst, keyOf(env.payload)), pos)
				pos++
			}
		}
	}
}

// foldTable is the delivery-time counterpart: within one vertex's segment
// it maps a combiner key to the position of the key's representative. One
// table per destination machine serves every segment of every round: the
// epoch stamp empties it between segments, and it is sized to the longest
// segment seen, so it stays a few cache lines for the short segments that
// send-time combining leaves.
type foldTable struct {
	slots []foldEntry
	epoch uint32
}

type foldEntry struct {
	key   uint64
	epoch uint32 // 0 marks never-written slots
	pos   int32
}

// begin readies the table for a segment of n messages: at most half full,
// every entry stale.
func (t *foldTable) begin(n int) {
	if 2*n > len(t.slots) {
		c := max(len(t.slots), 16)
		for c < 2*n {
			c *= 2
		}
		t.slots = make([]foldEntry, c)
		t.epoch = 0
	}
	t.epoch++
	if t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
}

// foldSegment folds one vertex's delivered messages in place and returns
// how many remain at the front of seg: one for an unkeyed combiner (a full
// left-to-right fold), otherwise one representative per distinct key,
// sitting at its key's first occurrence and folded in arrival order. That
// is exactly the layout send-time combining plus this cross-machine fold
// produces, so both timings — and the in-memory and out-of-core backends,
// which share this routine — yield bit-identical inboxes.
func (e *Engine[M]) foldSegment(t *foldTable, seg []M) int {
	if len(seg) == 1 {
		return 1
	}
	comb := e.opts.Combiner
	keyOf := e.opts.CombinerKey
	if keyOf == nil {
		acc := seg[0]
		for _, m := range seg[1:] {
			acc = comb(acc, m)
		}
		seg[0] = acc
		return 1
	}
	t.begin(len(seg))
	ep := t.epoch
	mask := uint64(len(t.slots) - 1)
	w := 0
	for _, m := range seg {
		key := keyOf(m)
		h := key * 0x9e3779b97f4a7c15
		for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.epoch != ep {
				*s = foldEntry{key: key, epoch: ep, pos: int32(w)}
				// w never passes the read position, so nothing unread is lost.
				seg[w] = m
				w++
				break
			}
			if s.key == key {
				seg[s.pos] = comb(seg[s.pos], m)
				break
			}
		}
	}
	return w
}

// combineMachine folds machine d's freshly delivered segments with the
// configured combiner, compacting in place within d's region and rewriting
// moffs.
func (e *Engine[M]) combineMachine(d int) {
	offs := e.moffs[d]
	reg := e.inbox[e.regionStart[d]:e.regionStart[d+1]]
	t := &e.foldTabs[d]
	nloc := len(e.mcount[d])
	lw := int32(0)
	prev := int32(0)
	for i := 0; i < nloc; i++ {
		lo, hi := prev, offs[i+1]
		prev = hi
		offs[i] = lw
		if lo == hi {
			continue
		}
		w := int32(e.foldSegment(t, reg[lo:hi]))
		if lw != lo {
			copy(reg[lw:], reg[lo:lo+w])
		}
		lw += w
	}
	offs[nloc] = lw
}
