package ooc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vcmt/internal/graph"
)

func testGraph(t testing.TB, n int, weighted bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, weighted)
	for v := 0; v < n; v++ {
		for d := 1; d <= 3; d++ {
			u := graph.VertexID((v + d*7) % n)
			if weighted {
				b.AddWeightedEdge(graph.VertexID(v), u, float32(d))
			} else {
				b.AddEdge(graph.VertexID(v), u)
			}
		}
	}
	return b.Build()
}

func identityOrder(n int) []graph.VertexID {
	order := make([]graph.VertexID, n)
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	return order
}

// TestRunnerWindowMatchesGraph checks that streaming every partition's
// window reproduces each vertex's adjacency (and weights) exactly.
func TestRunnerWindowMatchesGraph(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := testGraph(t, 97, weighted)
		r, err := NewRunner(g, identityOrder(97), Config{Dir: t.TempDir(), Partitions: 5})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		defer r.Close()
		if r.Partitions() != 5 {
			t.Fatalf("partitions = %d, want 5", r.Partitions())
		}
		covered := 0
		for p := 0; p < r.Partitions(); p++ {
			win, nb, err := r.Window(p)
			if err != nil {
				t.Fatalf("Window(%d): %v", p, err)
			}
			if nb <= 0 {
				t.Fatalf("Window(%d): non-positive size %d", p, nb)
			}
			if win.NumVertices() != g.NumVertices() {
				t.Fatalf("window has %d vertices, want %d", win.NumVertices(), g.NumVertices())
			}
			for _, v := range r.order[r.starts[p]:r.starts[p+1]] {
				covered++
				want := g.Neighbors(v)
				got := win.Neighbors(v)
				if len(got) != len(want) {
					t.Fatalf("partition %d vertex %d: degree %d, want %d", p, v, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("vertex %d neighbor %d mismatch", v, j)
					}
					if weighted && win.Weight(v, j) != g.Weight(v, j) {
						t.Fatalf("vertex %d weight %d mismatch", v, j)
					}
				}
			}
		}
		if covered != g.NumVertices() {
			t.Fatalf("partitions cover %d vertices, want %d", covered, g.NumVertices())
		}
	}
}

// TestRunnerRouteBarrierInbox routes messages in a known order and checks
// each partition's inbox preserves arrival order, is consumed exactly once,
// and the files disappear after reading.
func TestRunnerRouteBarrierInbox(t *testing.T) {
	g := testGraph(t, 20, false)
	dir := t.TempDir()
	r, err := NewRunner(g, identityOrder(20), Config{Dir: dir, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type sent struct {
		dst     graph.VertexID
		payload string
	}
	var all []sent
	for i := 0; i < 100; i++ {
		dst := graph.VertexID((i * 13) % 20)
		payload := string(rune('a'+i%26)) + "x"
		all = append(all, sent{dst, payload})
		if err := r.Route(dst, []byte(payload)); err != nil {
			t.Fatalf("Route: %v", err)
		}
	}
	if !r.Pending() {
		t.Fatal("Pending false after routing")
	}
	if err := r.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	var ib Inbox
	got := 0
	for p := 0; p < r.Partitions(); p++ {
		if err := r.ReadInbox(p, &ib); err != nil {
			t.Fatalf("ReadInbox(%d): %v", p, err)
		}
		// Expected: the routed messages for this partition in arrival order.
		var want []sent
		for _, s := range all {
			if int(r.partOf[s.dst]) == p {
				want = append(want, s)
			}
		}
		if ib.Len() != len(want) {
			t.Fatalf("partition %d: %d messages, want %d", p, ib.Len(), len(want))
		}
		for i := 0; i < ib.Len(); i++ {
			if ib.Dsts[i] != want[i].dst || !bytes.Equal(ib.Payload(i), []byte(want[i].payload)) {
				t.Fatalf("partition %d message %d out of order", p, i)
			}
		}
		got += ib.Len()
	}
	if got != len(all) {
		t.Fatalf("consumed %d messages, want %d", got, len(all))
	}
	if r.Pending() {
		t.Fatal("Pending true after all inboxes consumed")
	}
	read, write, peak := r.TakeRoundIO()
	if read <= 0 || write <= 0 || peak <= 0 {
		t.Fatalf("TakeRoundIO = (%d, %d, %d), want all positive", read, write, peak)
	}
	if read2, write2, peak2 := r.TakeRoundIO(); read2 != 0 || write2 != 0 || peak2 != 0 {
		t.Fatal("TakeRoundIO did not reset")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) > 5 && e.Name()[:5] == "inbox" {
			t.Fatalf("inbox file %s survived consumption", e.Name())
		}
	}
}

// TestRunnerDerivesPartitions checks the partition count is derived from the
// memory budget when unset, and that windows then respect the budget.
func TestRunnerDerivesPartitions(t *testing.T) {
	g := testGraph(t, 500, false)
	budget := int64(2048)
	r, err := NewRunner(g, identityOrder(500), Config{Dir: t.TempDir(), MemoryBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Partitions() < 2 {
		t.Fatalf("budget %d derived only %d partitions", budget, r.Partitions())
	}
	for p := 0; p < r.Partitions(); p++ {
		if _, nb, err := r.Window(p); err != nil {
			t.Fatal(err)
		} else if nb > budget {
			t.Fatalf("partition %d edge window %d exceeds budget %d", p, nb, budget)
		}
	}
}

// TestRunnerStats checks wall-clock IO accumulates into the caller's
// IOStats and produces a usable bandwidth estimate.
func TestRunnerStats(t *testing.T) {
	g := testGraph(t, 50, false)
	var stats IOStats
	r, err := NewRunner(g, identityOrder(50), Config{Dir: t.TempDir(), Partitions: 2, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 50; i++ {
		r.Route(graph.VertexID(i), []byte("pppp"))
	}
	if err := r.Barrier(); err != nil {
		t.Fatal(err)
	}
	var ib Inbox
	for p := 0; p < r.Partitions(); p++ {
		if _, _, err := r.Window(p); err != nil {
			t.Fatal(err)
		}
		if err := r.ReadInbox(p, &ib); err != nil {
			t.Fatal(err)
		}
	}
	if stats.ReadBytes <= 0 || stats.WriteBytes <= 0 {
		t.Fatalf("stats bytes = %+v, want positive", stats)
	}
	if stats.BytesPerSec() <= 0 {
		t.Fatalf("BytesPerSec = %v, want positive", stats.BytesPerSec())
	}
	if (*IOStats)(nil).BytesPerSec() != 0 {
		t.Fatal("nil IOStats bandwidth should be 0")
	}
}

// TestRunnerRejectsBadOrder checks order validation.
func TestRunnerRejectsBadOrder(t *testing.T) {
	g := testGraph(t, 10, false)
	if _, err := NewRunner(g, identityOrder(9), Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("short order accepted")
	}
	dup := identityOrder(10)
	dup[3] = 4
	if _, err := NewRunner(g, dup, Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("duplicate order accepted")
	}
}

// TestRunnerCloseRemovesOwnedDir checks temp-dir lifecycle.
func TestRunnerCloseRemovesOwnedDir(t *testing.T) {
	g := testGraph(t, 10, false)
	r, err := NewRunner(g, identityOrder(10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := r.dir
	r.Route(1, []byte("z"))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("owned dir survived Close: %v", err)
	}
}

// TestRunnerCloseRemovesFailedInbox forces the barrier's Finish to fail
// (its file is closed underneath it): the half-written inbox file must not
// outlive Close in a caller-supplied directory.
func TestRunnerCloseRemovesFailedInbox(t *testing.T) {
	g := testGraph(t, 10, false)
	dir := t.TempDir()
	r, err := NewRunner(g, identityOrder(10), Config{Dir: dir, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Route(1, []byte("z")); err != nil {
		t.Fatal(err)
	}
	r.cur[0].f.Close()
	if err := r.Barrier(); err == nil {
		t.Fatal("Barrier succeeded on a closed inbox file")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("%d files survived Close, first %s", len(entries), entries[0].Name())
	}
}

// TestNewRunnerRemovesFailedEdgeDump makes the second edge file's Finish
// fail (its name links to a device that refuses writes): NewRunner must
// fail and leave nothing of the dump — neither the failed file nor the
// first partition's finished one — in a caller-supplied directory.
func TestNewRunnerRemovesFailedEdgeDump(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "edges-0001.vp")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(testGraph(t, 10, false), identityOrder(10), Config{Dir: dir, Partitions: 2}); err == nil {
		t.Fatal("NewRunner succeeded on an unwritable edge file")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("%d files survived the failed NewRunner, first %s", len(entries), entries[0].Name())
	}
}

// TestRunnerRejectsMalformedPartitions hands Window and ReadInbox
// CRC-valid files that break what the runner wrote, one fault per case:
// each must fail with ErrCorrupt rather than build a wrong view or index
// past the graph.
func TestRunnerRejectsMalformedPartitions(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	r, err := NewRunner(testGraph(t, n, false), identityOrder(n), Config{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	other, _ := r.Span(1) // identity order: the first vertex of partition 1
	type edge struct {
		v    graph.VertexID
		nbrs []graph.VertexID
	}
	for _, tc := range []struct {
		name  string
		edges []edge           // an edge file for partition 0, or
		msgs  []graph.VertexID // an inbox for partition 0
	}{
		{name: "descending vertices", edges: []edge{{1, []graph.VertexID{0}}, {0, []graph.VertexID{1}}}},
		{name: "repeated vertex", edges: []edge{{1, []graph.VertexID{0}}, {1, []graph.VertexID{2}}}},
		{name: "vertex of another partition", edges: []edge{{graph.VertexID(other), nil}}},
		{name: "vertex beyond n", edges: []edge{{n, nil}}},
		{name: "neighbor beyond n", edges: []edge{{0, []graph.VertexID{1, 99}}}},
		{name: "destination of another partition", msgs: []graph.VertexID{0, graph.VertexID(other)}},
		{name: "destination beyond n", msgs: []graph.VertexID{0, n}},
	} {
		path := filepath.Join(dir, "crafted.vp")
		kind := byte(KindEdges)
		if tc.msgs != nil {
			kind = KindMessages
		}
		w, err := Create(path, kind, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tc.edges {
			w.AppendEdges(e.v, e.nbrs, nil)
		}
		for _, dst := range tc.msgs {
			w.AppendMessage(dst, []byte("m"))
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if tc.msgs != nil {
			r.in[0] = path
			var ib Inbox
			err = r.ReadInbox(0, &ib)
		} else {
			r.edgePaths[0] = path
			_, _, err = r.Window(0)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err=%v, want ErrCorrupt", tc.name, err)
		}
	}
}

// superstep routes msgs messages through r, seals them at the barrier and
// streams every partition's edge window and inbox back into ib.
func superstep(tb testing.TB, r *PartitionedRunner, ib *Inbox, msgs int) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for m := 0; m < msgs; m++ {
		if err := r.Route(graph.VertexID(m%r.n), payload); err != nil {
			tb.Fatal(err)
		}
	}
	if err := r.Barrier(); err != nil {
		tb.Fatal(err)
	}
	for p := 0; p < r.Partitions(); p++ {
		if _, _, err := r.Window(p); err != nil {
			tb.Fatal(err)
		}
		if err := r.ReadInbox(p, ib); err != nil {
			tb.Fatal(err)
		}
	}
	r.TakeRoundIO()
}

// TestRunnerSuperstepAllocsFlat checks that a warm runner's superstep
// allocates nothing per message or per buffered byte: what it allocates is
// the file system calls' own, so going from 5000 to 20000 messages (both
// enough to reach every partition) must add fewer than one allocation per
// thousand messages. The bound is a slope, not equality, because the race
// detector's runtime adds a stray allocation now and then.
func TestRunnerSuperstepAllocsFlat(t *testing.T) {
	g := testGraph(t, 4096, false)
	r, err := NewRunner(g, identityOrder(4096), Config{Dir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var ib Inbox
	var allocs [2]float64
	for i, msgs := range []int{5000, 20000} {
		superstep(t, r, &ib, msgs)
		allocs[i] = testing.AllocsPerRun(5, func() { superstep(t, r, &ib, msgs) })
	}
	if allocs[1]-allocs[0] >= 15 {
		t.Fatalf("superstep allocates %v at 5000 messages, %v at 20000", allocs[0], allocs[1])
	}
}

// TestWriteBuffersWithinBudget checks that the inbox files' write buffers,
// which sit outside the resident window, are sized from the budget: at 256
// partitions under a 1 MiB budget, opening every partition's inbox file
// allocates 1 MiB of buffers (the 4 KiB floor) and a little per file for
// its handle and name, not 256 × 64 KiB; one partition keeps 64 KiB.
func TestWriteBuffersWithinBudget(t *testing.T) {
	const n = 512
	g := testGraph(t, n, false)
	for _, tc := range []struct {
		parts  int
		bufLen int
	}{{256, 4 << 10}, {16, 4 << 10}, {1, writeBufLen}} {
		r, err := NewRunner(g, identityOrder(n), Config{Dir: t.TempDir(), MemoryBudgetBytes: 1 << 20, Partitions: tc.parts})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.bufLen != tc.bufLen {
			t.Errorf("P = %d: write buffers of %d bytes, want %d", tc.parts, r.bufLen, tc.bufLen)
		}
		if tc.parts != 256 {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for p := range tc.parts {
			start, _ := r.Span(p)
			if err := r.Route(graph.VertexID(start), []byte("m")); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(1<<20+tc.parts<<10) {
			t.Errorf("opening %d inbox files allocated %d bytes", tc.parts, got)
		}
	}
}
