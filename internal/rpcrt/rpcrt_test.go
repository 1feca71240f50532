package rpcrt

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/ref"
	"vcmt/internal/tasks"
	"vcmt/internal/vcapi"
	"vcmt/internal/wire"
)

func startTestCluster(t *testing.T, g *graph.Graph, k int) *Cluster {
	t.Helper()
	c, err := StartCluster(g, k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterStartsAndPings(t *testing.T) {
	g := graph.GenerateRing(20)
	c := startTestCluster(t, g, 3)
	if c.Workers() != 3 {
		t.Fatalf("workers=%d", c.Workers())
	}
}

func TestStartClusterRejectsZeroWorkers(t *testing.T) {
	if _, err := StartCluster(graph.GenerateRing(4), 0); err == nil {
		t.Fatal("want error for 0 workers")
	}
}

func TestMSSPOverRPCMatchesBFS(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.5, 3)
	c := startTestCluster(t, g, 4)
	sources := []graph.VertexID{0, 7, 42}
	dist, err := c.RunMSSP(sources)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		exact := ref.BFS(g, s)
		for v := 0; v < g.NumVertices(); v++ {
			if exact[v] == -1 {
				if !math.IsInf(dist[i][v], 1) {
					t.Fatalf("src %d v %d: want Inf got %v", s, v, dist[i][v])
				}
				continue
			}
			if dist[i][v] != float64(exact[v]) {
				t.Fatalf("src %d v %d: got %v want %d", s, v, dist[i][v], exact[v])
			}
		}
	}
	if c.Rounds() < 2 {
		t.Fatalf("rounds=%d, expected multi-round BSP", c.Rounds())
	}
	if c.MessagesSent() <= 0 {
		t.Fatal("no messages counted")
	}
}

func TestMSSPOverRPCWeighted(t *testing.T) {
	g := graph.WithUniformWeights(graph.GenerateChungLu(80, 320, 2.5, 9), 1, 3, 5)
	c := startTestCluster(t, g, 3)
	sources := []graph.VertexID{2, 40}
	dist, err := c.RunMSSP(sources)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		exact := ref.Dijkstra(g, s)
		for v := 0; v < g.NumVertices(); v++ {
			if math.IsInf(exact[v], 1) {
				if !math.IsInf(dist[i][v], 1) {
					t.Fatalf("src %d v %d: want Inf", s, v)
				}
				continue
			}
			if math.Abs(dist[i][v]-exact[v]) > 1e-4 {
				t.Fatalf("src %d v %d: got %v want %v", s, v, dist[i][v], exact[v])
			}
		}
	}
}

func TestBKHSOverRPCMatchesOracle(t *testing.T) {
	g := graph.GenerateChungLu(120, 480, 2.4, 11)
	c := startTestCluster(t, g, 4)
	sources := []graph.VertexID{1, 30, 99}
	counts, err := c.RunBKHS(sources, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want := int64(len(ref.KHop(g, s, 2)))
		if counts[i] != want {
			t.Fatalf("src %d: got %d want %d", s, counts[i], want)
		}
	}
}

// TestBKHSOverRPCRejectsBadRadius: a radius outside 1..MaxBKHSHops fails
// before the job starts (k=0 used to run radius 2, k=-1 radius 1), and the
// cluster still runs a valid job afterwards.
func TestBKHSOverRPCRejectsBadRadius(t *testing.T) {
	g := graph.GenerateChungLu(120, 480, 2.4, 11)
	c := startTestCluster(t, g, 2)
	sources := []graph.VertexID{1, 30}
	for _, k := range []int{0, -1, tasks.MaxBKHSHops + 1} {
		if counts, err := c.RunBKHS(sources, k); err == nil {
			t.Fatalf("k=%d accepted; counts %v", k, counts)
		}
	}
	counts, err := c.RunBKHS(sources, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		if want := int64(len(ref.KHop(g, s, 1))); counts[i] != want {
			t.Fatalf("src %d: got %d want %d", s, counts[i], want)
		}
	}
}

// TestSourceBatchOverRPCRejectsBadSources: a repeated or out-of-range
// MSSP/BKHS source is the worker's error, and the cluster still runs jobs.
func TestSourceBatchOverRPCRejectsBadSources(t *testing.T) {
	g := graph.GenerateRing(10)
	c := startTestCluster(t, g, 2)
	for _, sources := range [][]graph.VertexID{{3, 3}, {12}} {
		if d, err := c.RunMSSP(sources); err == nil {
			t.Fatalf("MSSP sources %v accepted; distances %v", sources, d)
		}
		if counts, err := c.RunBKHS(sources, 2); err == nil {
			t.Fatalf("BKHS sources %v accepted; counts %v", sources, counts)
		}
	}
	if counts, err := c.RunBKHS([]graph.VertexID{3}, 2); err != nil || counts[0] != 4 {
		t.Fatalf("after the rejected jobs: counts %v, error %v", counts, err)
	}
}

func TestBKHSOverRPCRoundCount(t *testing.T) {
	g := graph.GenerateChungLu(200, 800, 2.5, 13)
	c := startTestCluster(t, g, 2)
	if _, err := c.RunBKHS([]graph.VertexID{0, 1}, 3); err != nil {
		t.Fatal(err)
	}
	// k+1 supersteps carry messages; one more empty round detects the end.
	if c.Rounds() < 4 || c.Rounds() > 5 {
		t.Fatalf("rounds=%d want 4..5 for k=3", c.Rounds())
	}
}

func TestSequentialJobsOnOneCluster(t *testing.T) {
	g := graph.GenerateChungLu(100, 400, 2.5, 17)
	c := startTestCluster(t, g, 3)
	// Run MSSP, then BKHS, then MSSP again: job state must fully reset.
	d1, err := c.RunMSSP([]graph.VertexID{5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBKHS([]graph.VertexID{9}, 2); err != nil {
		t.Fatal(err)
	}
	d2, err := c.RunMSSP([]graph.VertexID{5})
	if err != nil {
		t.Fatal(err)
	}
	for v := range d1[0] {
		if d1[0][v] != d2[0][v] && !(math.IsInf(d1[0][v], 1) && math.IsInf(d2[0][v], 1)) {
			t.Fatalf("re-run diverged at %d: %v vs %v", v, d1[0][v], d2[0][v])
		}
	}
}

func TestUnknownProgramRejected(t *testing.T) {
	g := graph.GenerateRing(10)
	c := startTestCluster(t, g, 2)
	if _, err := c.runJob(JobSpec{Program: "nope"}); err == nil {
		t.Fatal("want error for unknown program")
	}
}

func TestSingleWorkerCluster(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.5, 19)
	c := startTestCluster(t, g, 1)
	dist, err := c.RunMSSP([]graph.VertexID{0})
	if err != nil {
		t.Fatal(err)
	}
	exact := ref.BFS(g, 0)
	for v := 0; v < 60; v++ {
		if exact[v] >= 0 && dist[0][v] != float64(exact[v]) {
			t.Fatalf("v %d: %v want %d", v, dist[0][v], exact[v])
		}
	}
}

// TestOwnerPartitionsEverything: the workers' engines own exactly the
// machines of graph.HashPartition — every vertex on one worker, in vertex
// order — so worker i computes what engine machine i computes.
func TestOwnerPartitionsEverything(t *testing.T) {
	const n = 10000
	g := graph.GenerateRing(n)
	for _, k := range []int{1, 2, 7, 16} {
		part := graph.HashPartition(n, k)
		total := 0
		for id := 0; id < k; id++ {
			w := newWorker(id, part, g)
			if err := w.StartJob(StartJobArgs{Spec: JobSpec{Program: "mssp", Sources: []graph.VertexID{0}}}, &struct{}{}); err != nil {
				t.Fatal(err)
			}
			owned := w.prog.(*host[tasks.DistMsg]).eng.Owned(id)
			if len(owned) != part.Count(id) || len(owned) == 0 {
				t.Fatalf("k=%d: worker %d owns %d vertices, partition says %d", k, id, len(owned), part.Count(id))
			}
			for i, v := range owned {
				if part.Owner(v) != id || (i > 0 && owned[i-1] >= v) {
					t.Fatalf("k=%d: worker %d owned[%d]=%d: owner %d", k, id, i, v, part.Owner(v))
				}
			}
			total += len(owned)
		}
		if total != n {
			t.Fatalf("k=%d: workers own %d vertices of %d", k, total, n)
		}
	}
}

func TestBPPROverRPCMatchesOracle(t *testing.T) {
	g := graph.GenerateChungLu(40, 160, 2.5, 7)
	c := startTestCluster(t, g, 3)
	const walks, alpha = 3000, 0.2
	ppr, err := c.RunBPPR(walks, alpha, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []graph.VertexID{0, 17} {
		exact := ref.PPR(g, src, alpha, 300)
		for v := 0; v < g.NumVertices(); v++ {
			est := ppr[[2]graph.VertexID{src, graph.VertexID(v)}]
			if diff := est - exact[v]; diff > 0.025 || diff < -0.025 {
				t.Fatalf("PPR(%d,%d): est %.4f exact %.4f", src, v, est, exact[v])
			}
		}
	}
}

func TestWorkerStatsConservation(t *testing.T) {
	g := graph.GenerateChungLu(150, 600, 2.5, 3)
	const k = 4
	c := startTestCluster(t, g, k)
	if _, err := c.RunMSSP([]graph.VertexID{0, 7, 42}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != k {
		t.Fatalf("stats for %d workers, want %d", len(stats), k)
	}
	var sent, recv, sentRemote, recvRemote int64
	var sentBytes, recvBytes, sentFrames, recvFrames int64
	for i, st := range stats {
		if st.ID != i {
			t.Fatalf("stats[%d].ID=%d", i, st.ID)
		}
		sent += st.Sent
		recv += st.Recv
		sentRemote += st.SentRemote
		recvRemote += st.RecvRemote
		sentBytes += st.SentBytes
		recvBytes += st.RecvBytes
		sentFrames += st.SentFrames
		recvFrames += st.RecvFrames
		// Byte counters are exact encoded frame sizes, present exactly when
		// remote traffic is: every remote message costs at least its minimal
		// envelope encoding plus a share of one frame header.
		if (st.SentBytes > 0) != (st.SentRemote > 0) {
			t.Fatalf("worker %d: byte counters inconsistent with remote traffic: %+v", i, st)
		}
		if st.SentBytes > 0 && st.SentBytes < st.SentRemote*6 {
			t.Fatalf("worker %d: SentBytes %d below minimal encoding for %d remote msgs", i, st.SentBytes, st.SentRemote)
		}
	}
	// Exact wire-byte conservation: the sender counts each frame at encode
	// time, the receiver counts the same frame at decode time, and both
	// agree with the master's per-round accounting.
	if sentBytes != recvBytes {
		t.Fatalf("wire bytes sent %d != received %d", sentBytes, recvBytes)
	}
	if sentFrames != recvFrames || sentFrames <= 0 {
		t.Fatalf("frames sent %d, received %d", sentFrames, recvFrames)
	}
	if sentBytes != c.WireBytesSent() {
		t.Fatalf("worker byte counters %d != master wire bytes %d", sentBytes, c.WireBytesSent())
	}
	// Conservation: every message sent is received exactly once, and the
	// counters agree with the master's own count.
	if sent != recv {
		t.Fatalf("sent %d != recv %d", sent, recv)
	}
	if sent != c.MessagesSent() {
		t.Fatalf("worker counters %d != master count %d", sent, c.MessagesSent())
	}
	if sentRemote != recvRemote {
		t.Fatalf("remote sent %d != remote recv %d", sentRemote, recvRemote)
	}
	if sentRemote <= 0 {
		t.Fatal("multi-worker job generated no cross-partition traffic")
	}
	if sentRemote >= sent {
		t.Fatal("all traffic remote: local-delivery path never taken")
	}
	// Pairwise conservation: what i sent to j, j received from i.
	for i := range stats {
		for j := range stats {
			if got, want := stats[j].RecvByPeer[i], stats[i].SentByPeer[j]; got != want {
				t.Fatalf("matrix mismatch: %d->%d sent %d, received %d", i, j, want, got)
			}
		}
	}
	// Remote counts match partition crossings: a message from worker i is
	// remote exactly when its destination hashes to a different owner, so
	// row i's off-diagonal sum is SentRemote.
	for i, st := range stats {
		var off int64
		for j, n := range st.SentByPeer {
			if j != i {
				off += n
			}
		}
		if off != st.SentRemote {
			t.Fatalf("worker %d: off-diagonal %d != SentRemote %d", i, off, st.SentRemote)
		}
	}
}

func TestClusterFeedsRegistry(t *testing.T) {
	g := graph.GenerateChungLu(120, 480, 2.4, 11)
	const k = 3
	c := startTestCluster(t, g, k)
	reg := obs.NewRegistry()
	c.SetRegistry(reg)
	if _, err := c.RunBKHS([]graph.VertexID{1, 30}, 2); err != nil {
		t.Fatal(err)
	}
	stats, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		lbl := obs.L("worker", strconv.Itoa(st.ID))
		if got := reg.Counter("rpcrt_sent_total", lbl).Value(); got != st.Sent {
			t.Fatalf("worker %d: registry sent %d != stats %d", st.ID, got, st.Sent)
		}
		if got := reg.Counter("rpcrt_recv_total", lbl).Value(); got != st.Recv {
			t.Fatalf("worker %d: registry recv %d != stats %d", st.ID, got, st.Recv)
		}
		if got := reg.Counter("rpcrt_sent_bytes_total", lbl).Value(); got != st.SentBytes {
			t.Fatalf("worker %d: registry bytes %d != stats %d", st.ID, got, st.SentBytes)
		}
	}
	// The per-round histograms cover every superstep of the job.
	msgs := reg.Histogram("rpcrt_round_msgs").Stats()
	if int(msgs.Count) != c.Rounds() {
		t.Fatalf("round histogram count %d != rounds %d", msgs.Count, c.Rounds())
	}
	if int64(msgs.Sum) != c.MessagesSent() {
		t.Fatalf("round histogram sum %v != messages %d", msgs.Sum, c.MessagesSent())
	}
	wall := reg.Histogram("rpcrt_round_wall_seconds").Stats()
	if int(wall.Count) != c.Rounds() || wall.Sum <= 0 {
		t.Fatalf("wall-clock histogram: %+v for %d rounds", wall, c.Rounds())
	}
	wb := reg.Histogram("rpcrt_round_wire_bytes").Stats()
	if int(wb.Count) != c.Rounds() {
		t.Fatalf("wire-byte histogram count %d != rounds %d", wb.Count, c.Rounds())
	}
	if int64(wb.Sum) != c.WireBytesSent() {
		t.Fatalf("wire-byte histogram sum %v != wire bytes %d", wb.Sum, c.WireBytesSent())
	}
}

func TestBPPROverRPCMassConservation(t *testing.T) {
	g := graph.GenerateChungLu(60, 240, 2.4, 9)
	c := startTestCluster(t, g, 4)
	const walks = 200
	ppr, err := c.RunBPPR(walks, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	mass := make(map[graph.VertexID]float64)
	for key, p := range ppr {
		mass[key[0]] += p
	}
	for v := 0; v < g.NumVertices(); v++ {
		if m := mass[graph.VertexID(v)]; m < 0.999 || m > 1.001 {
			t.Fatalf("source %d: normalized mass %v want 1", v, m)
		}
	}
}

// recorder is a program on bare envelopes: it seeds by sending seeds and
// records every inbox its Compute calls see.
type recorder struct {
	seeds []Message
	got   map[graph.VertexID][]Message
}

func (r *recorder) Seed(ctx vcapi.Context[Message]) {
	for _, m := range r.seeds {
		ctx.Send(m.Dst, m)
	}
}

func (r *recorder) Compute(_ vcapi.Context[Message], v graph.VertexID, msgs []Message) {
	r.got[v] = append(r.got[v], msgs...)
}

// oneWorker returns worker id of k over a ring of n vertices, hosting prog
// on envelopes as they are, with no peers: prog may send only to the
// worker's own vertices.
func oneWorker(id, k, n int, prog *recorder) *Worker {
	w := newWorker(id, graph.HashPartition(n, k), graph.GenerateRing(n))
	w.prog = install[Message](w, prog, 0, nil,
		func(dst graph.VertexID, m Message) Message { m.Dst = dst; return m },
		func(m Message) Message { return m }, nil)
	return w
}

// ownedOf returns the vertices w's engine owns.
func ownedOf(w *Worker) []graph.VertexID { return w.prog.(*host[Message]).eng.Owned(w.id) }

func step(t *testing.T, w *Worker, round int) RoundReply {
	t.Helper()
	var reply RoundReply
	if err := w.Step(StepArgs{Round: round}, &reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestAdvanceSortsInbox delivers frames from two peers out of sender order
// next to the worker's own sends and checks that the next Step hands every
// vertex its messages in the engine's delivery order — sender-major,
// emission-minor, whatever Src and Val say — so a late frame from a
// low-numbered sender still sorts first.
func TestAdvanceSortsInbox(t *testing.T) {
	rec := &recorder{got: make(map[graph.VertexID][]Message)}
	w := oneWorker(1, 3, 12, rec)
	a, b := ownedOf(w)[0], ownedOf(w)[1]
	rec.seeds = []Message{{Dst: b, Src: 7, Val: 3}, {Dst: b, Src: 7, Val: 2}} // the worker's own sends sort as sender 1
	step(t, w, 1)
	deliver := func(from int, batch ...Message) {
		t.Helper()
		if err := w.Deliver(DeliverArgs{Frame: wire.EncodeDeliver(nil, from, 1, 0, batch)}, &struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	deliver(2, Message{Dst: b, Src: 1, Val: 1}, Message{Dst: a, Src: 9, Val: 5})
	deliver(2, Message{Dst: b, Src: 0, Val: 0})
	deliver(0, Message{Dst: a, Src: 8, Val: 9}, Message{Dst: b, Src: 8, Val: 9}) // the late low sender
	step(t, w, 2)
	want := map[graph.VertexID][]Message{
		a: {{Dst: a, Src: 8, Val: 9}, {Dst: a, Src: 9, Val: 5}},
		b: {{Dst: b, Src: 8, Val: 9}, {Dst: b, Src: 7, Val: 3}, {Dst: b, Src: 7, Val: 2}, {Dst: b, Src: 1, Val: 1}, {Dst: b, Src: 0, Val: 0}},
	}
	if !reflect.DeepEqual(rec.got, want) {
		t.Fatalf("inboxes %v, want %v", rec.got, want)
	}
	if r := step(t, w, 3); r.Msgs != 0 || len(rec.got[a])+len(rec.got[b]) != 7 {
		t.Fatalf("a third superstep sent %d messages and saw inboxes %v, want nothing", r.Msgs, rec.got)
	}
}

// TestDeliverExactByteAccounting hand-encodes a delivery frame and checks
// that the receiver counts exactly the frame's encoded size — the encoder
// and the counters must agree.
func TestDeliverExactByteAccounting(t *testing.T) {
	w := oneWorker(1, 2, 40000, &recorder{})
	step(t, w, 1)
	owned := ownedOf(w)
	batch := []Message{ // destinations of 1, 2 and 3 varint bytes
		{Dst: owned[0], Src: 0, Val: 1.5},
		{Dst: owned[100], Src: 300, Val: -2},
		{Dst: owned[len(owned)-1], Src: 70000, Val: 0},
	}
	frame := wire.EncodeDeliver(nil, 0, 1, 0, batch)
	if len(frame) != 36 { // an 8-byte header, 4 one-byte varints, 6+8+10 bytes of envelopes
		t.Fatalf("encoded frame is %d bytes, want 36", len(frame))
	}
	if err := w.Deliver(DeliverArgs{Frame: frame}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	if w.recvBytes != int64(len(frame)) || w.recvFrames != 1 {
		t.Fatalf("recvBytes=%d recvFrames=%d, want %d and 1", w.recvBytes, w.recvFrames, len(frame))
	}
	if got := w.recvByPeer[0]; got != int64(len(batch)) {
		t.Fatalf("recvByPeer[0]=%d want %d", got, len(batch))
	}
}

// TestDeliverRejectsCorruptFrame truncates and tampers with a valid frame
// and requires Deliver to reject it with wire.ErrCorrupt — and a well-formed
// frame from the worker itself or an unknown sender, or for a vertex owned
// elsewhere or out of range, with a plain error — leaving the engine's rows
// and every counter untouched.
func TestDeliverRejectsCorruptFrame(t *testing.T) {
	w := oneWorker(1, 2, 8, &recorder{})
	step(t, w, 1)
	mine, other := ownedOf(w)[0], ownedOf(oneWorker(0, 2, 8, &recorder{}))[0]
	frame := wire.EncodeDeliver(nil, 0, 2, 0, []Message{{Dst: mine, Src: 1, Val: 9}})
	bad := [][]byte{
		frame[:len(frame)-1],              // truncated payload
		frame[:4],                         // truncated header
		append([]byte{'X'}, frame[1:]...), // bad magic
		nil,                               // empty
	}
	for i, f := range bad {
		err := w.Deliver(DeliverArgs{Frame: f}, &struct{}{})
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("case %d: got %v, want wire.ErrCorrupt", i, err)
		}
	}
	for i, f := range [][]byte{
		wire.EncodeDeliver(nil, 2, 1, 0, []Message{{Dst: mine}}),
		wire.EncodeDeliver(nil, 1, 1, 0, []Message{{Dst: mine}}),
		wire.EncodeDeliver(nil, 0, 1, 0, []Message{{Dst: mine}, {Dst: other}}),
		wire.EncodeDeliver(nil, 0, 1, 0, []Message{{Dst: 8}}),
	} {
		if err := w.Deliver(DeliverArgs{Frame: f}, &struct{}{}); err == nil || errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("misrouted frame %d: got %v, want a non-corruption error", i, err)
		}
	}
	eng := w.prog.(*host[Message]).eng
	rows := eng.Buffered(0, 1) + eng.Buffered(1, 1)
	if w.recvBytes != 0 || w.recvFrames != 0 || w.recvByPeer[0] != 0 || rows != 0 {
		t.Fatalf("rejected frames mutated state: bytes=%d frames=%d recv=%v rows=%d",
			w.recvBytes, w.recvFrames, w.recvByPeer, rows)
	}
}

// TestStaleDeliverNeverLands parks a frame for superstep 2 of one job, starts
// the next job and steps it to superstep 2: the frame belongs to the
// abandoned job, so Deliver must refuse it rather than land it on the new
// job's engine.
func TestStaleDeliverNeverLands(t *testing.T) {
	w := oneWorker(1, 2, 8, &recorder{})
	step(t, w, 1)
	frame := wire.EncodeDeliver(nil, 0, 2, 0, []Message{{Dst: ownedOf(w)[0], Src: 1, Val: 9}})
	done := make(chan error, 1)
	go func() { done <- w.Deliver(DeliverArgs{Frame: frame}, &struct{}{}) }()
	waitParked(t, w)
	if err := w.StartJob(StartJobArgs{Spec: JobSpec{Program: "mssp"}}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	step(t, w, 1)
	step(t, w, 2)
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the stale frame is still waiting after the new job's superstep 2")
	}
	rows := w.prog.(*host[tasks.DistMsg]).eng.Buffered(0, 1)
	if err == nil || rows != 0 || w.recvFrames != 0 || w.recvByPeer[0] != 0 {
		t.Fatalf("stale frame: err=%v rows=%d frames=%d recv=%v, want an error and nothing landed",
			err, rows, w.recvFrames, w.recvByPeer)
	}
}

// waitParked returns once a Deliver call waits on w's barrier.
func waitParked(t *testing.T, w *Worker) {
	t.Helper()
	call := fmt.Sprintf("(*Worker).Deliver(%p,", w)
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, call) {
				return
			}
		}
	}
	t.Fatal("no Deliver call waits on the worker's barrier")
}
