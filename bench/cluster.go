package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"vcmt/internal/ckpt"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/randx"
	"vcmt/internal/rpcrt"
	"vcmt/internal/wire"
)

const (
	clusterWorkers = 2
	ckptInterval   = 4
	clusterSources = 16 // MSSP and BKHS source count
	clusterWalks   = 8  // BPPR walks per vertex
	bpprAlpha      = 0.15
)

// clusterCkpt runs MSSP, BKHS and BPPR on one long-lived rpcrt cluster over
// loopback TCP, checkpointing every ckptInterval supersteps.
type clusterCkpt struct {
	dir     string
	seed    uint64
	dataset graph.DatasetSpec
	dumpLen int64
	g       *graph.Graph
	c       *rpcrt.Cluster
	mssp    []graph.VertexID
	bkhs    []graph.VertexID
	passes  int // numbers the per-pass checkpoint directories

	// What the last probed pass left for the oracles and the exact counts.
	kept struct {
		dist   [][]float64
		counts []int64
		ppr    map[[2]graph.VertexID]float64
		tally  clusterTally
		ckptN  int64
		ckptB  int64
	}

	// Traced-run measurements.
	plainP50  float64
	noCkptS   float64
	ckptLoadS float64
	codecS    float64
}

// clusterTally sums rpcrt.WorkerStats over the workers and jobs of a pass.
type clusterTally struct {
	rounds, sent, recv, sentRemote, retries, bytes, frames int64
}

func newClusterCkpt(seed uint64, dir string) *clusterCkpt {
	d, _ := graph.Dataset("DBLP") // a literal Table 1 name
	rng := randx.New(seed)
	return &clusterCkpt{
		dir: dir, seed: seed, dataset: d,
		mssp: pickSources(rng, d.Nodes, clusterSources),
		bkhs: pickSources(rng, d.Nodes, clusterSources),
	}
}

func (w *clusterCkpt) drivers() int { return 1 }

func (w *clusterCkpt) setUp(p *probe, parent obs.SpanID) error {
	dump, n, err := writeDump(w.dataset, w.dir, p, parent)
	if err != nil {
		return err
	}
	w.dumpLen = n
	span := p.begin(parent, 0, "graph", "load")
	w.g, err = graph.LoadBinaryFile(dump)
	p.end(span)
	if err != nil {
		return err
	}
	span = p.begin(parent, 0, "rpcrt", "cluster-start")
	w.c, err = rpcrt.StartCluster(w.g, clusterWorkers)
	p.end(span)
	return err
}

func (w *clusterCkpt) pass(_ int, p *probe, parent obs.SpanID) (passOut, error) {
	w.passes++
	dir := filepath.Join(w.dir, "ckpt", fmt.Sprintf("pass%06d", w.passes))
	out, err := w.runPass(p, parent, dir)
	// Checkpoints of a finished pass are dead weight; dropping them is part
	// of running with checkpoints.
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return out, err
}

// runPass runs the three jobs, each checkpointing into its own directory
// under ckptDir (a stale higher-numbered snapshot of an earlier job would
// make the manager prune the new ones); an empty ckptDir runs without
// checkpoints.
func (w *clusterCkpt) runPass(p *probe, parent obs.SpanID, ckptDir string) (passOut, error) {
	// rpcrt's own spans ride the Deliver frames as trace contexts, so they
	// change the wire bytes: the warm-up pass, where the exact counts come
	// from, runs without them in both kinds of run.
	var reg *obs.Registry
	var tr *obs.Tracer
	if p != nil && p.keep {
		reg = obs.NewRegistry()
	} else if p != nil {
		tr = p.tr
	}
	w.c.SetRegistry(reg)
	w.c.SetTracer(tr)

	var (
		tally  clusterTally
		msgs   int64
		dist   [][]float64
		counts []int64
		ppr    map[[2]graph.VertexID]float64
	)
	jobs := []struct {
		name string
		run  func() error
	}{
		{"mssp", func() (err error) { dist, err = w.c.RunMSSP(w.mssp); return }},
		{"bkhs", func() (err error) { counts, err = w.c.RunBKHS(w.bkhs, 2); return }},
		{"bppr", func() (err error) { ppr, err = w.c.RunBPPR(clusterWalks, bpprAlpha, w.seed); return }},
	}
	for _, j := range jobs {
		if ckptDir == "" {
			w.c.SetCheckpoint("", 0)
		} else {
			w.c.SetCheckpoint(filepath.Join(ckptDir, j.name), ckptInterval)
		}
		span := p.begin(parent, 0, "rpcrt", j.name)
		err := j.run()
		if err == nil {
			err = w.tallyJob(&tally)
		}
		p.end(span)
		if err != nil {
			return passOut{}, fmt.Errorf("%s: %w", j.name, err)
		}
		msgs += w.c.MessagesSent()
	}
	if tally.sent != tally.recv {
		return passOut{}, fmt.Errorf("conservation: %d messages sent, %d received", tally.sent, tally.recv)
	}
	if tally.retries != 0 {
		return passOut{}, fmt.Errorf("%d delivery retries on a fault-free run", tally.retries)
	}

	span := p.begin(parent, 0, "bench", "verify")
	out := passOut{msgs: msgs, sum: digestResults(dist, counts, ppr, tally)}
	p.end(span)
	if p != nil && p.keep {
		w.kept.dist, w.kept.counts, w.kept.ppr, w.kept.tally = dist, counts, ppr, tally
		w.kept.ckptN = reg.Counter("rpcrt_ckpt_writes_total").Value()
		w.kept.ckptB = reg.Counter("rpcrt_ckpt_bytes_total").Value()
	}
	return out, nil
}

func (w *clusterCkpt) tallyJob(t *clusterTally) error {
	stats, err := w.c.WorkerStats()
	if err != nil {
		return err
	}
	t.rounds += int64(w.c.Rounds())
	for _, st := range stats {
		t.sent += st.Sent
		t.recv += st.Recv
		t.sentRemote += st.SentRemote
		t.retries += st.Retries
		t.bytes += st.SentBytes
		t.frames += st.SentFrames
	}
	return nil
}

// digestResults hashes the arrays the three jobs returned plus the superstep
// and message tallies (not the wire bytes, which tracing changes). The BPPR
// map is folded order-independently, so no sort is paid per pass.
func digestResults(dist [][]float64, counts []int64, ppr map[[2]graph.VertexID]float64, t clusterTally) [32]byte {
	h := sha256.New()
	var row []byte
	for _, d := range dist {
		row = row[:0]
		for _, x := range d {
			row = binary.LittleEndian.AppendUint64(row, math.Float64bits(x))
		}
		h.Write(row)
	}
	row = row[:0]
	for _, c := range counts {
		row = binary.LittleEndian.AppendUint64(row, uint64(c))
	}
	var fold uint64
	for k, v := range ppr {
		x := (uint64(k[0])<<32 | uint64(k[1])) ^ math.Float64bits(v)*0x9e3779b97f4a7c15
		x ^= x >> 31
		fold += x * 0xbf58476d1ce4e5b9
	}
	for _, x := range []uint64{fold, uint64(len(ppr)), uint64(t.rounds), uint64(t.sent)} {
		row = binary.LittleEndian.AppendUint64(row, x)
	}
	h.Write(row)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func (w *clusterCkpt) checkOracles() error {
	for _, i := range sample(len(w.mssp), 2) {
		d := w.kept.dist[i]
		if err := checkDistances(w.g, w.mssp[i], func(v graph.VertexID) float64 { return d[v] }); err != nil {
			return err
		}
	}
	for i, s := range w.bkhs {
		if err := checkReached(w.g, s, 2, w.kept.counts[i]); err != nil {
			return err
		}
	}
	// Every vertex launches clusterWalks walks and every walk ends somewhere:
	// each source's estimates sum to 1.
	perSrc := make([]float64, w.g.NumVertices())
	for k, v := range w.kept.ppr {
		perSrc[k[0]] += v
	}
	for s, mass := range perSrc {
		if math.Abs(mass-1) > 1e-6 {
			return fmt.Errorf("BPPR source %d: endpoint mass %v, want 1", s, mass)
		}
	}
	return nil
}

func (w *clusterCkpt) exactCounts(m map[string]float64) {
	t := w.kept.tally
	m["graph.load_bytes"] = float64(w.dumpLen)
	m["rpcrt.supersteps"] = float64(t.rounds)
	m["rpcrt.msgs_sent"] = float64(t.sent)
	m["rpcrt.msgs_recv"] = float64(t.recv)
	m["rpcrt.retries"] = float64(t.retries)
	m["wire.bytes_sent"] = float64(t.bytes)
	m["wire.frames_sent"] = float64(t.frames)
	m["ckpt.written"] = float64(w.kept.ckptN)
	m["ckpt.bytes"] = float64(w.kept.ckptB)
}

// extras runs the no-checkpoint twin (three passes), loads the newest
// snapshots of one more checkpointed pass, and estimates the codec's share
// by pushing a pass's remote message count through the wire codec.
func (w *clusterCkpt) extras(p *probe, parent obs.SpanID, plainP50 float64) error {
	w.plainP50 = plainP50
	var walls []float64
	for i := 0; i < 3; i++ {
		span := p.begin(parent, 0, "bench", "no-ckpt-twin")
		t0 := time.Now()
		_, err := w.runPass(nil, 0, "")
		walls = append(walls, time.Since(t0).Seconds())
		p.end(span)
		if err != nil {
			return err
		}
	}
	w.noCkptS = median(walls)

	dir := filepath.Join(w.dir, "ckpt", "kept")
	if _, err := w.runPass(nil, 0, dir); err != nil {
		return err
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "bppr", "*"+ckpt.FileSuffix))
	if err != nil || len(snaps) == 0 {
		return fmt.Errorf("no snapshot left in %s (%v)", dir, err)
	}
	span := p.begin(parent, 0, "ckpt", "ckpt-load")
	t0 := time.Now()
	for _, path := range snaps {
		if _, err := ckpt.Load(path); err != nil {
			return err
		}
	}
	w.ckptLoadS = time.Since(t0).Seconds() / float64(len(snaps))
	p.end(span)

	span = p.begin(parent, 0, "wire", "codec-estimate")
	w.codecS = codecSeconds(int(w.kept.tally.sentRemote), w.g.NumVertices(), w.seed)
	p.end(span)
	return nil
}

// codecSeconds encodes and decodes n envelopes in MaxDeliverEnvelopes-sized
// Deliver frames, the way a worker's flush and its peer's receive do.
func codecSeconds(n, vertices int, seed uint64) float64 {
	rng := randx.New(seed)
	batch := make([]wire.Envelope, wire.MaxDeliverEnvelopes)
	for i := range batch {
		batch[i] = wire.Envelope{
			Dst: graph.VertexID(rng.Intn(vertices)), Src: graph.VertexID(rng.Intn(vertices)), Val: float32(i % 7),
		}
	}
	var frame []byte
	var decoded []wire.Envelope
	t0 := time.Now()
	for left := n; left > 0; left -= len(batch) {
		if left < len(batch) {
			batch = batch[:left]
		}
		frame = wire.EncodeDeliver(frame[:0], 0, 1, 0, batch)
		_, decoded, _ = wire.DecodeDeliver(frame, decoded[:0])
	}
	return time.Since(t0).Seconds()
}

func (w *clusterCkpt) layerMetrics(s *spanSet, passes int, m map[string]float64) {
	n := float64(passes)
	m["rpcrt.start_s"] = s.total("setup", "cluster-start")
	m["rpcrt.mssp_wall_s"] = s.total("pass", "mssp") / n
	m["rpcrt.bkhs_wall_s"] = s.total("pass", "bkhs") / n
	m["rpcrt.bppr_wall_s"] = s.total("pass", "bppr") / n
	jobs := m["rpcrt.mssp_wall_s"] + m["rpcrt.bkhs_wall_s"] + m["rpcrt.bppr_wall_s"]
	m["rpcrt.ns_per_msg"] = ratio(jobs*1e9, m["rpcrt.msgs_sent"])

	// rpcrt's own wall-clock spans: worker i is trace process 1+i; its
	// compute track carries seed, compute and checkpoint spans.
	busy := make(map[int]float64)
	for i, sp := range s.spans {
		if s.scope[i] != "pass" {
			continue
		}
		d := float64(sp.DurUS) / 1e6
		switch {
		case sp.Cat == "worker":
			m["rpcrt.compute_s"] += d / n
			busy[sp.Proc] += d / n
		case sp.Cat == "wire" && sp.Name == "recv":
			m["rpcrt.recv_s"] += d / n
		case sp.Cat == "ckpt" && sp.Proc == 0:
			m["rpcrt.checkpoint_s"] += d / n
		case sp.Cat == "ckpt":
			busy[sp.Proc] += d / n
		}
	}
	var busiest float64
	for _, b := range busy {
		busiest = math.Max(busiest, b)
	}
	m["rpcrt.barrier_wait_s"] = jobs - busiest
	m["wire.bytes_per_msg"] = ratio(m["wire.bytes_sent"], float64(w.kept.tally.sentRemote))
	m["wire.codec_s_est"] = w.codecS
	m["ckpt.load_s"] = w.ckptLoadS
	m["ckpt.cost_s"] = w.plainP50 - w.noCkptS
}

func (w *clusterCkpt) close() {
	if w.c != nil {
		w.c.Close()
	}
}
