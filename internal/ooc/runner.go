package ooc

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vcmt/internal/graph"
	"vcmt/internal/rec"
)

// IOStats accumulates measured wall-clock IO from a run. Unlike the encoded
// byte counters the runner reports per round (which are deterministic and
// flow into reports), these include real seconds and exist only to display
// observed disk bandwidth. They never enter deterministic output.
type IOStats struct {
	ReadBytes    int64
	WriteBytes   int64
	ReadSeconds  float64
	WriteSeconds float64
}

// BytesPerSec returns the observed streaming bandwidth, or 0 when there is
// no signal yet.
func (s *IOStats) BytesPerSec() float64 {
	if s == nil {
		return 0
	}
	sec := s.ReadSeconds + s.WriteSeconds
	b := s.ReadBytes + s.WriteBytes
	if sec <= 0 || b <= 0 {
		return 0
	}
	return float64(b) / sec
}

// Config parameterizes a PartitionedRunner.
type Config struct {
	// Dir is the directory for partition files. Empty means a private
	// temporary directory that Close removes.
	Dir string
	// MemoryBudgetBytes bounds the resident window: one partition's edge
	// file plus its inbox. When Partitions is 0 the partition count is
	// derived so each edge partition fits in half the budget.
	MemoryBudgetBytes int64
	// Partitions fixes the partition count; 0 derives it from the budget.
	Partitions int
	// Stats, when non-nil, accumulates measured wall-clock IO.
	Stats *IOStats
}

// Inbox holds one partition's delivered messages in arrival order, which —
// because senders execute in the deterministic global order and appends
// preserve emission order — is the global chronological emission order
// restricted to this partition. Payload i is Data[Offs[i]:Offs[i+1]].
type Inbox struct {
	Dsts []graph.VertexID
	Offs []int32
	Data []byte
	// Bytes is the resident footprint charged against the memory window.
	Bytes int64
}

// Reset empties the inbox, keeping capacity.
func (ib *Inbox) Reset() {
	ib.Dsts = ib.Dsts[:0]
	ib.Offs = append(ib.Offs[:0], 0)
	ib.Data = ib.Data[:0]
	ib.Bytes = 0
}

// Len returns the number of messages.
func (ib *Inbox) Len() int { return len(ib.Dsts) }

// Payload returns message i's payload.
func (ib *Inbox) Payload(i int) []byte { return ib.Data[ib.Offs[i]:ib.Offs[i+1]] }

// PartitionedRunner executes supersteps out-of-core: the vertex execution
// order (machine-major, exactly the sequential engine's order) is cut into
// contiguous partitions; each partition's edges live in a sorted partition
// file written once up front, and messages are routed at send time into
// per-destination-partition append files that become the next superstep's
// inboxes at the barrier. At any moment only one partition's edge window
// and inbox are resident — the bounded memory window.
type PartitionedRunner struct {
	g        *graph.Graph
	dir      string
	ownsDir  bool
	n        int
	parts    int
	order    []graph.VertexID // machine-major execution order (all n vertices)
	partOf   []int32          // vertex -> partition
	starts   []int            // len parts+1; order[starts[p]:starts[p+1]] is partition p
	weighted bool

	edgePaths []string // partition p's edge file, pinned to its length
	edgeSizes []int64  // and CRC-64 trailer when written
	edgeSums  []uint64

	cur []*Writer // next superstep's inbox files, keyed by partition
	in  []string  // current superstep's readable inbox files ("" = none)
	seq int64     // file-name sequence

	// IO buffers, owned here rather than per file: rd's read buffer serves
	// every file (one is read at a time), and finished writers wait in
	// spare with theirs, of bufLen bytes, until the next create.
	rd     Reader
	spare  []*Writer
	bufLen int

	// Deterministic per-round accounting in encoded bytes; consumed by
	// TakeRoundIO at each barrier. Partition held's edge file and inbox
	// bytes are resident, in whichever order they were loaded.
	readBytes  int64
	writeBytes int64
	windowPeak int64
	held       int
	heldBytes  [2]int64

	stats *IOStats

	// Window scratch, reused across partitions; want marks the vertices
	// whose neighbors Window decodes.
	win  EdgeList
	offs []int64
	want []uint64
}

// NewRunner partitions the execution order and writes the edge partition
// files. order must contain every vertex of g exactly once; it defines both
// the partition cuts (contiguous ranges) and the in-partition execution
// order, so the caller's deterministic vertex order is preserved exactly.
func NewRunner(g *graph.Graph, order []graph.VertexID, cfg Config) (*PartitionedRunner, error) {
	n := g.NumVertices()
	if len(order) != n {
		return nil, fmt.Errorf("ooc: order has %d vertices, graph has %d", len(order), n)
	}
	dir, ownsDir := cfg.Dir, false
	if dir == "" {
		d, err := os.MkdirTemp("", "vcooc-")
		if err != nil {
			return nil, err
		}
		dir, ownsDir = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	r := &PartitionedRunner{
		g: g, dir: dir, ownsDir: ownsDir, n: n,
		order: order, weighted: g.Weighted(), stats: cfg.Stats,
		partOf: make([]int32, n), offs: make([]int64, n+1), want: make([]uint64, (n+63)/64),
	}
	seen := make([]bool, n)
	for _, v := range order {
		if int(v) >= n || seen[v] {
			r.Close()
			return nil, fmt.Errorf("ooc: order is not a permutation (vertex %d)", v)
		}
		seen[v] = true
	}

	// Estimated encoded edge bytes per vertex: two varints plus ~5 bytes
	// per neighbor (varint ID + optional weight). Used only to derive the
	// partition count; actual sizes are measured when the files are written.
	perNbr := int64(5)
	if r.weighted {
		perNbr = 9
	}
	estBytes := int64(n)*10 + g.NumEdges()*perNbr
	r.parts = cfg.Partitions
	if r.parts <= 0 {
		r.parts = 1
		if cfg.MemoryBudgetBytes > 0 {
			half := max(cfg.MemoryBudgetBytes/2, 1)
			r.parts = int((estBytes + half - 1) / half)
		}
	}
	r.parts = max(r.parts, 1)
	if r.parts > n && n > 0 {
		r.parts = n
	}
	// Each partition's open inbox file holds a write buffer outside the
	// window: together they take at most a sixteenth of the budget, within
	// [4 KiB, writeBufLen] each.
	r.bufLen = writeBufLen
	if cfg.MemoryBudgetBytes > 0 {
		r.bufLen = int(min(max(cfg.MemoryBudgetBytes/int64(16*r.parts), 4<<10), writeBufLen))
	}

	// Cut the order into parts contiguous ranges, balanced by estimated
	// edge bytes so the largest edge window stays near estBytes/parts.
	r.starts = make([]int, r.parts+1)
	target := (estBytes + int64(r.parts) - 1) / int64(r.parts)
	p, acc := 0, int64(0)
	for i, v := range order {
		r.partOf[v] = int32(p)
		acc += 10 + int64(g.Degree(v))*perNbr
		if acc >= target && p < r.parts-1 {
			p++
			r.starts[p] = i + 1
			acc = 0
		}
	}
	for q := p + 1; q <= r.parts; q++ {
		r.starts[q] = n
	}

	r.cur = make([]*Writer, r.parts)
	r.in = make([]string, r.parts)
	r.edgePaths = make([]string, r.parts)
	r.edgeSizes, r.edgeSums = make([]int64, r.parts), make([]uint64, r.parts)
	if err := r.writeEdgePartitions(); err != nil {
		r.Close() // removes the edge files already finished
		return nil, err
	}
	return r, nil
}

// writeEdgePartitions writes each partition's edge records sorted by vertex
// ID, as the format requires, so Window rebuilds a CSR view in one sweep,
// and pins each file's length and trailer.
func (r *PartitionedRunner) writeEdgePartitions() error {
	start := time.Now()
	var written int64
	verts := make([]graph.VertexID, 0, r.n)
	for p := 0; p < r.parts; p++ {
		verts = append(verts[:0], r.order[r.starts[p]:r.starts[p+1]]...)
		slices.Sort(verts)
		w, err := r.create(fmt.Sprintf("edges-%04d.vp", p), KindEdges)
		if err != nil {
			return err
		}
		for _, v := range verts {
			if err := w.AppendEdges(v, r.g.Neighbors(v), r.g.Weights(v)); err != nil {
				w.Abort()
				return err
			}
		}
		nb, err := w.Finish()
		if err != nil {
			w.Abort()
			return err
		}
		r.spare = append(r.spare, w)
		r.edgePaths[p], r.edgeSizes[p], r.edgeSums[p] = w.path, nb, w.enc.Sum()
		written += nb
	}
	// The one-time edge dump is charged to the first round's write counter.
	r.writeBytes += written
	if r.stats != nil {
		r.stats.WriteBytes += written
		r.stats.WriteSeconds += time.Since(start).Seconds()
	}
	return nil
}

// Partitions returns the partition count.
func (r *PartitionedRunner) Partitions() int { return r.parts }

// Span returns partition p's range order[start:end] of the execution order.
func (r *PartitionedRunner) Span(p int) (start, end int) { return r.starts[p], r.starts[p+1] }

// Route appends one outgoing message to its destination partition's file
// for the next superstep. Payloads are opaque; appends preserve emission
// order, which is what makes the merged inbox deterministic.
func (r *PartitionedRunner) Route(dst graph.VertexID, payload []byte) error {
	p := r.partOf[dst]
	w := r.cur[p]
	if w == nil {
		r.seq++
		var err error
		if w, err = r.create(fmt.Sprintf("inbox-%06d-p%04d.vp", r.seq, p), KindMessages); err != nil {
			return err
		}
		r.cur[p] = w
		r.writeBytes += w.Bytes() // the header, charged to the emitting round
	}
	if err := w.AppendMessage(dst, payload); err != nil {
		return err
	}
	size := rec.UvarintLen(uint64(dst)) + len(payload) // the record's body
	r.writeBytes += int64(rec.UvarintLen(uint64(size)) + size)
	return nil
}

// create starts partition file name in the runner's directory, on a spare
// writer if one is free.
func (r *PartitionedRunner) create(name string, kind byte) (*Writer, error) {
	var w *Writer
	if n := len(r.spare); n > 0 {
		w, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		w = new(Writer)
		w.enc.Reset(nil, r.bufLen) // create keeps this buffer
	}
	return w, w.create(filepath.Join(r.dir, name), kind, kind == KindEdges && r.weighted)
}

// Pending reports whether any routed-but-unread messages exist.
func (r *PartitionedRunner) Pending() bool {
	for _, w := range r.cur {
		if w != nil && w.Records() > 0 {
			return true
		}
	}
	for _, path := range r.in {
		if path != "" {
			return true
		}
	}
	return false
}

// Barrier seals the current superstep's routed messages: every open append
// file is finished (trailer written) and becomes the next superstep's
// readable inbox for its partition.
func (r *PartitionedRunner) Barrier() error {
	start := time.Now()
	var flushed int64
	for p, w := range r.cur {
		if w == nil {
			continue
		}
		if r.in[p] != "" {
			return fmt.Errorf("ooc: partition %d inbox not consumed before barrier", p)
		}
		pre := w.Bytes()
		nb, err := w.Finish()
		if err != nil {
			return err
		}
		r.writeBytes += nb - pre // end marker, count and trailer
		r.in[p] = w.path
		r.cur[p] = nil
		r.spare = append(r.spare, w)
		flushed += nb
	}
	if r.stats != nil {
		r.stats.WriteBytes += flushed
		r.stats.WriteSeconds += time.Since(start).Seconds()
	}
	return nil
}

// Window streams partition p's edge file into a full-width CSR view of the
// vertices dsts (p's inbox destinations, the ones that compute): n
// vertices, degree 0 for any other. The whole file is read and checked
// against its pinned length and trailer, so the neighbor bytes it leaves
// undecoded are the graph's; with no dsts none is opened. Either way the
// whole file is charged to the round's read bytes and the resident window,
// as GraphD streams it (Stats counts the bytes really read). The view
// aliases scratch buffers reused by the next Window call.
func (r *PartitionedRunner) Window(p int, dsts []graph.VertexID) (*graph.Graph, int64, error) {
	e := &r.win
	e.Verts, e.Degs, e.Adj, e.Wts = e.Verts[:0], e.Degs[:0], e.Adj[:0], e.Wts[:0]
	if len(dsts) > 0 {
		start, rd := time.Now(), &r.rd
		if err := rd.open(r.edgePaths[p]); err != nil {
			return nil, 0, err
		}
		defer rd.Close()
		for _, v := range dsts {
			r.want[v>>6] |= 1 << (v & 63)
		}
		span := r.starts[p+1] - r.starts[p] // the most records p's file may hold
		e.Verts, e.Degs = slices.Grow(e.Verts, span), slices.Grow(e.Degs, span)
		// Only the pinned file passes, so its kind needs no check of its own.
		err := rd.decode(e, nil, uint64(r.n), r.want)
		for _, v := range dsts {
			r.want[v>>6] = 0 // every set bit is one of dsts'
		}
		if err == nil && (rd.Bytes() != r.edgeSizes[p] || rd.dec.Sum() != r.edgeSums[p]) {
			err = rec.Errorf(ErrCorrupt, "edge file of partition %d is not the one written", p)
		}
		if err != nil {
			return nil, 0, err
		}
		if r.stats != nil {
			r.stats.ReadBytes += rd.Bytes()
			r.stats.ReadSeconds += time.Since(start).Seconds()
		}
	}
	// The records name ascending vertices, so one sweep fills the offsets.
	at, v := int64(0), 0
	for i, u := range e.Verts {
		if r.partOf[u] != int32(p) {
			return nil, 0, rec.Errorf(ErrCorrupt, "edge record for vertex %d in partition %d", u, p)
		}
		for ; v <= int(u); v++ {
			r.offs[v] = at
		}
		at += int64(e.Degs[i])
	}
	for ; v <= r.n; v++ {
		r.offs[v] = at
	}
	g, err := graph.NewCSRView(r.n, r.offs, e.Adj, e.Wts)
	if err != nil {
		return nil, 0, err
	}
	nb := r.edgeSizes[p]
	r.readBytes += nb
	r.hold(p, 0, nb)
	return g, nb, nil
}

// hold makes partition p's edge file (part 0) or inbox (part 1) of nb bytes
// resident beside the other one of p, if loaded, and raises the round's
// window peak to their sum.
func (r *PartitionedRunner) hold(p, part int, nb int64) {
	if p != r.held {
		r.held, r.heldBytes = p, [2]int64{}
	}
	r.heldBytes[part] = nb
	r.windowPeak = max(r.windowPeak, r.heldBytes[0]+r.heldBytes[1])
}

// ReadInbox streams partition p's inbox file (if any) into ib in arrival
// order, deletes the file, and charges the resident footprint against the
// memory window alongside p's edge window.
func (r *PartitionedRunner) ReadInbox(p int, ib *Inbox) error {
	ib.Reset()
	path := r.in[p]
	if path == "" {
		r.hold(p, 1, 0)
		return nil
	}
	start := time.Now()
	rd := &r.rd
	if err := rd.open(path); err != nil {
		return err
	}
	err := rd.ReadMessages(ib, uint64(r.n))
	rd.Close()
	if err != nil {
		return err
	}
	for _, dst := range ib.Dsts {
		if r.partOf[dst] != int32(p) {
			return rec.Errorf(ErrCorrupt, "message for vertex %d routed to partition %d", dst, p)
		}
	}
	encoded := rd.Bytes() // the whole file, as in Window
	if err := os.Remove(path); err != nil {
		return err
	}
	r.in[p] = ""
	ib.Bytes = int64(len(ib.Data)) + int64(len(ib.Dsts))*8
	r.readBytes += encoded
	r.hold(p, 1, ib.Bytes)
	if r.stats != nil {
		r.stats.ReadBytes += encoded
		r.stats.ReadSeconds += time.Since(start).Seconds()
	}
	return nil
}

// TakeRoundIO returns and resets the deterministic encoded-byte IO counters
// accumulated since the previous call: bytes read, bytes written, and the
// peak resident window (edge window + inbox) observed.
func (r *PartitionedRunner) TakeRoundIO() (read, write, peak int64) {
	read, write, peak = r.readBytes, r.writeBytes, r.windowPeak
	r.readBytes, r.writeBytes, r.windowPeak = 0, 0, 0
	r.heldBytes = [2]int64{}
	return read, write, peak
}

// Close releases every partition file and, for runner-owned directories,
// removes the directory.
func (r *PartitionedRunner) Close() error {
	for p, w := range r.cur {
		if w != nil {
			w.Abort()
			r.cur[p] = nil
		}
	}
	for p, path := range r.in {
		if path != "" {
			os.Remove(path)
			r.in[p] = ""
		}
	}
	for _, path := range r.edgePaths {
		if path != "" {
			os.Remove(path)
		}
	}
	if r.ownsDir {
		return os.RemoveAll(r.dir)
	}
	return nil
}
