package tasks

// endpointChunk is the size of every endpoint-table chunk but the first,
// which grows by append up to it so a small table stays small.
const endpointChunk = 4096

// endpoint is one table entry: a pairKey and the walk mass stopped there.
type endpoint struct {
	key  uint64
	mass float64
}

// endpointTable is one machine's (source, vertex) → walk-mass table, kept
// in first-insertion order. Entries live in fixed-size chunks, so growth
// never copies them and a snapshot is one linear scan; index is an
// open-addressed hash of entry position+1 (0 marks an empty slot), rebuilt
// at twice its size before it passes half full.
type endpointTable struct {
	chunks [][]endpoint
	n      int
	index  []int32
	// Since the last mark (none: saved 0), dirty lists, in first-change
	// order, the saved entries whose mass changed; seen has their bits.
	saved int
	dirty []int32
	seen  []uint64
}

func (t *endpointTable) at(pos int32) *endpoint {
	return &t.chunks[pos/endpointChunk][pos%endpointChunk]
}

// slot returns the index slot holding key, or the empty slot it would take.
func (t *endpointTable) slot(key uint64) int {
	mask := len(t.index) - 1
	for i := int(key*0x9e3779b97f4a7c15>>32) & mask; ; i = (i + 1) & mask {
		if p := t.index[i]; p == 0 || t.at(p-1).key == key {
			return i
		}
	}
}

// get returns key's mass, 0 when key has none.
func (t *endpointTable) get(key uint64) float64 {
	if t.n > 0 {
		if p := t.index[t.slot(key)]; p != 0 {
			return t.at(p - 1).mass
		}
	}
	return 0
}

// ref returns key's entry, valid until the next ref, appending one of zero
// mass when key is new, which fresh reports.
func (t *endpointTable) ref(key uint64) (e *endpoint, fresh bool) {
	if 2*(t.n+1) > len(t.index) {
		t.index = make([]int32, max(2*len(t.index), 16))
		for pos := range t.n {
			t.index[t.slot(t.at(int32(pos)).key)] = int32(pos + 1)
		}
	}
	i := t.slot(key)
	if p := t.index[i]; p != 0 {
		if int(p) <= t.saved {
			t.touch(p - 1)
		}
		return t.at(p - 1), false
	}
	if c := t.n / endpointChunk; c == len(t.chunks) {
		t.chunks = append(t.chunks, make([]endpoint, 0, min(t.n, endpointChunk)))
	}
	t.chunks[len(t.chunks)-1] = append(t.chunks[len(t.chunks)-1], endpoint{key: key})
	t.n++
	t.index[i] = int32(t.n)
	return t.at(int32(t.n - 1)), true
}

// touch lists entry pos, which the last mark saved, as changed, and reports
// whether it was not listed yet.
func (t *endpointTable) touch(pos int32) bool {
	w, bit := pos/64, uint64(1)<<(pos%64)
	if t.seen[w]&bit != 0 {
		return false
	}
	t.seen[w] |= bit
	t.dirty = append(t.dirty, pos)
	return true
}

// mark makes the current entries the saved ones, none changed.
func (t *endpointTable) mark() {
	for _, pos := range t.dirty {
		t.seen[pos/64] = 0
	}
	t.dirty, t.saved = t.dirty[:0], t.n
	if w := (t.n + 63) / 64; w > len(t.seen) {
		t.seen = make([]uint64, max(w, 2*len(t.seen)))
	}
}
