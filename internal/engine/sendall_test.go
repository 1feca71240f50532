package engine

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vcmt/internal/gas"
	"vcmt/internal/graph"
	"vcmt/internal/sim"
	"vcmt/internal/vcapi"
)

// fanMsg is a k-hop flood message whose W field is its logical weight.
type fanMsg struct{ Src, Hop, W int32 }

type fanCodec struct{}

func (fanCodec) Encode(buf []byte, m fanMsg) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Src))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Hop))
	return binary.LittleEndian.AppendUint32(buf, uint32(m.W))
}
func (fanCodec) Decode(d []byte) (fanMsg, int) {
	return fanMsg{int32(binary.LittleEndian.Uint32(d)), int32(binary.LittleEndian.Uint32(d[4:])),
		int32(binary.LittleEndian.Uint32(d[8:]))}, 12
}

// fanProg floods hop counts from a few sources out to k hops. Every fan-out
// goes to three lists — the neighbors, every other neighbor, and none — per
// element with Send, or with one SendAll per list when sendAll is set, and
// a vertex of degree 8 or more also broadcasts. It records every segment
// delivered to each vertex.
type fanProg struct {
	sendAll bool
	srcs    []graph.VertexID
	k       int32
	hop     [][]int32 // [source][vertex], -1 until reached
	got     [][]fanRecv
}

type fanRecv struct {
	round int
	msgs  []fanMsg
}

func newFanProg(n int, srcs []graph.VertexID, sendAll bool) *fanProg {
	p := &fanProg{sendAll: sendAll, srcs: srcs, k: 3, hop: make([][]int32, len(srcs)), got: make([][]fanRecv, n)}
	for i := range p.hop {
		p.hop[i] = make([]int32, n)
		for v := range p.hop[i] {
			p.hop[i][v] = -1
		}
	}
	return p
}

func (p *fanProg) send(ctx vcapi.Context[fanMsg], dsts []graph.VertexID, m fanMsg) {
	if p.sendAll {
		ctx.SendAll(dsts, m)
		return
	}
	for _, u := range dsts {
		ctx.Send(u, m)
	}
}

func (p *fanProg) fan(ctx vcapi.Context[fanMsg], v graph.VertexID, src, hop int32) {
	ns := ctx.Graph().Neighbors(v)
	m := fanMsg{Src: src, Hop: hop, W: int32(v%3) + 1}
	p.send(ctx, ns, m)
	var odd []graph.VertexID
	for i := 1; i < len(ns); i += 2 {
		odd = append(odd, ns[i])
	}
	p.send(ctx, odd, fanMsg{Src: src, Hop: hop, W: m.W + 1})
	p.send(ctx, nil, m)
	if len(ns) >= 8 {
		ctx.Broadcast(v, m) // the mirror arm on a mirroring profile
	}
}

func (p *fanProg) Seed(ctx vcapi.Context[fanMsg]) {
	for _, v := range ctx.OwnedVertices() {
		for i, s := range p.srcs {
			if s == v {
				p.hop[i][v] = 0
				p.fan(ctx, v, int32(i), 1)
			}
		}
	}
}

func (p *fanProg) Compute(ctx vcapi.Context[fanMsg], v graph.VertexID, msgs []fanMsg) {
	p.got[v] = append(p.got[v], fanRecv{ctx.Round(), append([]fanMsg(nil), msgs...)})
	for _, m := range msgs {
		if h := p.hop[m.Src][v]; h != -1 && h <= m.Hop {
			continue
		}
		p.hop[m.Src][v] = m.Hop
		if m.Hop < p.k {
			p.fan(ctx, v, m.Src, m.Hop+1)
		}
	}
}

// machineLog is a sim.Observer keeping every round's per-machine counters.
type machineLog [][]sim.MachineRound

func (l *machineLog) OnBatchStart(int, float64) {}
func (l *machineLog) OnRound(o sim.RoundObservation) {
	*l = append(*l, append([]sim.MachineRound(nil), o.Stats.PerMachine...))
}

// fanRun is everything one run of fanProg shows: also each round's outbox
// rows in memory and its sealed partition files out of core, where the
// order within one SendAll shows (its messages share a payload, so no
// inbox tells them apart).
type fanRun struct {
	rounds machineLog
	res    sim.JobResult
	prog   *fanProg
	rows   [][][]envelope[fanMsg]
	files  [][]byte
}

// runFan runs prog to completion as Run does, keeping each round's rows or,
// out of core, each round's inbox files: it seals them at the end of the
// round, which leaves the next round's own barrier nothing to seal.
func runFan(e *Engine[fanMsg], r *fanRun) error {
	if err := e.initOOC(); err != nil {
		return err
	}
	defer e.closeOOC()
	defer e.stopPool()
	for first := true; first || e.pending(); first = false {
		if err := e.Step(); err != nil {
			return err
		}
		if e.ooc.runner != nil {
			if err := e.ooc.runner.Barrier(); err != nil {
				return err
			}
			inboxes, err := filepath.Glob(filepath.Join(e.opts.OOC.Dir, "inbox-*.vp"))
			if err != nil {
				return err
			}
			var sealed []byte
			for _, path := range inboxes { // Glob sorts: creation order
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				sealed = append(sealed, b...)
			}
			r.files = append(r.files, sealed)
		}
		rows := make([][]envelope[fanMsg], len(e.outRows))
		for i := range e.outRows {
			for ci := range e.outRows[i].chunks {
				rows[i] = append(rows[i], e.outRows[i].filled(ci)...)
			}
		}
		r.rows = append(r.rows, rows)
	}
	return nil
}

func fanWeight(m fanMsg) int64 { return int64(m.W) }

// requireSameRuns fails unless the per-element and the SendAll runs agree
// on every per-machine counter of every round, every delivered segment and
// the outputs, and the flood did send weighted traffic.
func requireSameRuns(t *testing.T, send, all fanRun) {
	t.Helper()
	if len(send.rounds) < 3 || send.res.TotalLogicalMsgs == 0 {
		t.Fatalf("the flood ran %d rounds and sent %g messages; want a real run", len(send.rounds), send.res.TotalLogicalMsgs)
	}
	if !reflect.DeepEqual(send.rounds, all.rounds) {
		t.Fatalf("per-machine round counters differ:\n Send    %+v\n SendAll %+v", send.rounds, all.rounds)
	}
	if !reflect.DeepEqual(send.res, all.res) {
		t.Fatalf("job results differ:\n Send    %+v\n SendAll %+v", send.res, all.res)
	}
	for v := range send.prog.got {
		if !reflect.DeepEqual(send.prog.got[v], all.prog.got[v]) {
			t.Fatalf("vertex %d: delivered segments differ:\n Send    %v\n SendAll %v", v, send.prog.got[v], all.prog.got[v])
		}
	}
	if !reflect.DeepEqual(send.prog.hop, all.prog.hop) {
		t.Fatal("hop tables differ")
	}
	if !reflect.DeepEqual(send.rows, all.rows) {
		t.Fatal("outbox rows differ")
	}
	if send.files != nil && len(send.files[0]) == 0 {
		t.Fatal("the first round sealed no partition file")
	}
	if !reflect.DeepEqual(send.files, all.files) {
		t.Fatal("sealed partition files differ")
	}
}

// TestSendAllEqualsSend runs one program twice on the engine, sending per
// element and with SendAll on the same lists, with and without a weight
// function, at one and two workers, in memory and out of core, on a
// mirroring and a non-mirroring profile: SendAll is Send in a loop, to the
// counter, the delivered message and its order.
func TestSendAllEqualsSend(t *testing.T) {
	const n, k = 300, 4
	g := graph.GenerateChungLu(n, 1200, 2.5, 5)
	part := graph.HashPartition(n, k)
	srcs := []graph.VertexID{0, 7, 150}
	for _, sys := range []sim.SystemProfile{sim.PregelPlus, sim.PregelPlusMirror} {
		for _, weighted := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				for _, ooc := range []bool{false, true} {
					if ooc && sys.Mirror {
						continue // mirror spans assume a resident graph
					}
					label := fmt.Sprintf("%s weighted=%v workers=%d ooc=%v", sys.Name, weighted, workers, ooc)
					var runs [2]fanRun
					for i, sendAll := range []bool{false, true} {
						r := &runs[i]
						r.prog = newFanProg(n, srcs, sendAll)
						run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(k), System: sys, Observer: &r.rounds})
						opts := Options[fanMsg]{Seed: 3, Workers: workers}
						if weighted {
							opts.Weight = fanWeight
						}
						if ooc {
							opts.Codec, opts.OOC = fanCodec{}, &OOCOptions{Dir: t.TempDir(), Partitions: 3}
						}
						if err := runFan(New(g, part, r.prog, run, opts), r); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						r.res = run.Result()
					}
					t.Run(label, func(t *testing.T) { requireSameRuns(t, runs[0], runs[1]) })
				}
			}
		}
	}
}

// TestGASSendAllEqualsSend is TestSendAllEqualsSend on the asynchronous GAS
// executor, with and without a weight function.
func TestGASSendAllEqualsSend(t *testing.T) {
	const n, k = 300, 4
	g := graph.GenerateChungLu(n, 1200, 2.5, 5)
	part := graph.HashPartition(n, k)
	srcs := []graph.VertexID{0, 7, 150}
	for _, weighted := range []bool{false, true} {
		var runs [2]fanRun
		for i, sendAll := range []bool{false, true} {
			r := &runs[i]
			r.prog = newFanProg(n, srcs, sendAll)
			run := sim.NewRun(sim.JobConfig{Cluster: sim.Galaxy8.WithMachines(k), System: sim.GraphLabAsync, Observer: &r.rounds})
			opts := gas.Options[fanMsg]{Seed: 3}
			if weighted {
				opts.Weight = fanWeight
			}
			if err := gas.NewAsync(g, part, r.prog, run, opts).Run(); err != nil {
				t.Fatal(err)
			}
			r.res = run.Result()
		}
		t.Run(fmt.Sprintf("weighted=%v", weighted), func(t *testing.T) { requireSameRuns(t, runs[0], runs[1]) })
	}
}
