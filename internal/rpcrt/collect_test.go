package rpcrt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vcmt/internal/ckpt"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/rec"
)

// pinnedReply is worker 0's Collect reply to MSSP from vertex 0 on a
// 4-cycle over 2 workers: it owns vertices 0, 1 and 3, at distances 0, 1
// and 1.
var pinnedReply = []byte{
	0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // (row 0, vertex 0, 0.0)
	0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // (row 0, vertex 1, 1.0)
	0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // (row 0, vertex 3, 1.0)
}

// TestCollectReplyBytesPinned pins a worker's packed Collect reply: a
// record per owned vertex, ascending — the source row, the vertex and its
// distance.
func TestCollectReplyBytesPinned(t *testing.T) {
	c := startTestCluster(t, graph.GenerateRing(4), 2)
	if _, err := c.RunMSSP([]graph.VertexID{0}); err != nil {
		t.Fatal(err)
	}
	var reply []byte
	if err := c.workers[0].Collect(struct{}{}, &reply); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, pinnedReply) {
		t.Fatalf("Collect reply\n got %v\nwant %v", reply, pinnedReply)
	}
}

// TestCollectReplyRejectsCorrupt: a reply that is short, misaligned or
// holds a record outside the job's rows or vertices is an error wrapping
// rec.ErrCorrupt — where indexing the master's result arrays with it would
// panic.
func TestCollectReplyRejectsCorrupt(t *testing.T) {
	good := appendResult(appendResult(nil, 0, 1, 1), 1, 3, 2)
	var got []byte
	if err := eachResult([][]byte{good, nil}, 2, 4, func(row, v uint32, val float64) {
		got = appendResult(got, row, v, val)
	}); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("intact reply: %v, records %v", err, got)
	}
	for name, part := range map[string][]byte{
		"short":               good[:5],
		"misaligned":          good[:len(good)-1],
		"trailing byte":       append(bytes.Clone(good), 0),
		"row out of range":    appendResult(nil, 2, 0, 1),
		"vertex out of range": appendResult(nil, 0, 4, 1),
	} {
		err := eachResult([][]byte{good, part}, 2, 4, func(uint32, uint32, float64) {})
		if !errors.Is(err, rec.ErrCorrupt) {
			t.Fatalf("%s: %v, want rec.ErrCorrupt", name, err)
		}
	}
}

// FuzzCollectReply feeds arbitrary replies to the master's decoder: each
// must decode or fail with rec.ErrCorrupt, never panic, and the records of
// a reply that decodes must pack back to exactly its bytes.
func FuzzCollectReply(f *testing.F) {
	f.Add(pinnedReply)
	f.Add(pinnedReply[:20])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []byte
		err := eachResult([][]byte{data}, 3, 5, func(row, v uint32, val float64) {
			got = appendResult(got, row, v, val)
		})
		if err != nil {
			if !errors.Is(err, rec.ErrCorrupt) {
				t.Fatalf("decode failed with %v, want rec.ErrCorrupt", err)
			}
			return
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("a decoded reply packs back to %d other bytes (was %d)", len(got), len(data))
		}
	})
}

// TestTraceAttributesCollectAndDeltas: a traced, checkpointed BPPR job
// puts one Worker.Collect RPC span per worker under the job span, and
// labels every worker checkpoint span with its kind next to its bytes —
// bases and deltas both, on a graph whose snapshots are large enough to
// chain.
func TestTraceAttributesCollectAndDeltas(t *testing.T) {
	c := startTestCluster(t, graph.GenerateChungLu(3000, 12000, 2.5, 4), 2)
	c.SetCheckpoint(t.TempDir(), 2)
	tracer := obs.NewTracer()
	c.SetTracer(tracer)
	if _, err := c.RunBPPR(8, 0.15, 1); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Spans()
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	collects := 0
	kinds := map[string]int{}
	for _, s := range spans {
		switch {
		case s.Name == "Worker.Collect":
			collects++
			if byID[s.Parent].Name != "job" {
				t.Fatalf("Collect span parented under %+v, want the job span", byID[s.Parent])
			}
		case s.Name == "checkpoint" && s.Proc != 0:
			if len(s.Args) != 3 || s.Args[1].Key != "kind" || s.Args[2].Key != "bytes" {
				t.Fatalf("worker checkpoint span labels %v, want round, kind, bytes", s.Args)
			}
			kinds[s.Args[1].Value]++
		}
	}
	if collects != 2 || kinds["base"] == 0 || kinds["delta"] == 0 || len(kinds) != 2 {
		t.Fatalf("%d Collect spans and checkpoint kinds %v, want 2 and both kinds", collects, kinds)
	}
}

// TestBPPRMidChainCrashOverRPC crashes a worker right after a checkpoint
// that is a delta on a chain of at least three snapshots: every worker
// restores its chain base first, and the recovered job must equal the
// fault-free one in results, supersteps, messages, the kind and size of
// every checkpoint it cuts, and every checkpoint file it leaves. (Traced
// runs carry span ids in their frames, which changes the wire-byte
// counters in the files, so the files come from untraced twins.)
func TestBPPRMidChainCrashOverRPC(t *testing.T) {
	g := graph.GenerateChungLu(3000, 12000, 2.5, 4)
	// run returns the job's results, its cluster, and each worker's
	// checkpoint spans — round, kind and bytes — in round order.
	run := func(dir string, traced bool, plan string) (map[[2]graph.VertexID]float64, *Cluster, map[int][]string) {
		c := startTestCluster(t, g, 2)
		c.SetCheckpoint(dir, 2)
		tracer := obs.NewTracer()
		if traced {
			c.SetTracer(tracer)
		}
		if plan != "" {
			c.SetFaultPlan(mustPlan(t, plan))
		}
		ppr, err := c.RunBPPR(8, 0.15, 1)
		if err != nil {
			t.Fatal(err)
		}
		cuts := map[int][]string{}
		for _, s := range tracer.Spans() {
			if s.Name == "checkpoint" && s.Proc != 0 {
				cuts[s.Proc] = append(cuts[s.Proc], fmt.Sprint(s.Args))
			}
		}
		return ppr, c, cuts
	}
	want, wc, wantCuts := run(t.TempDir(), true, "")
	crashAt := 0
	for i, w1 := 1, wantCuts[workerProc(1)]; i < len(w1) && crashAt == 0; i++ {
		var r0, r1 int
		var k0, k1 string
		fmt.Sscanf(w1[i-1], "[{round %d} {kind %s", &r0, &k0)
		fmt.Sscanf(w1[i], "[{round %d} {kind %s", &r1, &k1)
		if k0 == "delta}" && k1 == "delta}" {
			crashAt = r1 + 1
		}
	}
	if crashAt == 0 {
		t.Fatalf("worker 1 wrote no two deltas in a row: %v", wantCuts)
	}
	plan := fmt.Sprintf("crash:worker=1,step=%d", crashAt)
	got, c, gotCuts := run(t.TempDir(), true, plan)
	if c.Recoveries() != 1 || c.Rounds() != wc.Rounds() || c.MessagesSent() != wc.MessagesSent() {
		t.Fatalf("%s: %d recoveries, %d/%d supersteps/messages, fault-free %d/%d",
			plan, c.Recoveries(), c.Rounds(), c.MessagesSent(), wc.Rounds(), wc.MessagesSent())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: recovered results differ from the fault-free run", plan)
	}
	if fmt.Sprint(gotCuts) != fmt.Sprint(wantCuts) {
		t.Fatalf("%s: checkpoints\n%v\nfault-free\n%v", plan, gotCuts, wantCuts)
	}
	clean, crashed := t.TempDir(), t.TempDir()
	run(clean, false, "")
	run(crashed, false, plan)
	paths, err := filepath.Glob(filepath.Join(clean, "*"+ckpt.FileSuffix))
	if err != nil || len(paths) == 0 {
		t.Fatalf("the fault-free job left no checkpoint (%v)", err)
	}
	for _, p := range paths {
		a, errA := os.ReadFile(p)
		b, errB := os.ReadFile(filepath.Join(crashed, filepath.Base(p)))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s differs between the fault-free and the recovered run (%v, %v)", filepath.Base(p), errA, errB)
		}
	}
}
