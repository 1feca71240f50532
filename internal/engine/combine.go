package engine

// foldTable is the keyed fold's scratch: within one vertex's segment it
// maps a combiner key to the position of the key's representative. One
// table per destination machine serves every segment of every round: the
// epoch stamp empties it between segments — the slots are cleared only when
// the 32-bit epoch wraps — and it is sized to twice the longest segment
// seen and never shrinks, so a job's later rounds and batches do not grow
// it.
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
// sitting at its key's first occurrence and folded in arrival order. The
// in-memory and out-of-core backends share this routine, so a combined job
// yields bit-identical inboxes on both.
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

// combineMachine folds the freshly delivered segments of machine d's ranks
// lo..hi-1 with the configured combiner, compacting in place within d's
// region and rewriting moffs[d][lo:hi+1].
func (e *Engine[M]) combineMachine(d, lo, hi int) {
	offs := e.moffs[d][lo : hi+1]
	reg := e.inbox[e.regionStart[d]:e.regionStart[d+1]]
	t := &e.foldTabs[d]
	nloc := hi - lo
	lw := offs[0]
	prev := offs[0]
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
