package rpcrt

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"strconv"
	"strings"
	"sync"
	"time"

	"vcmt/internal/fault"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/rec"
)

// Cluster is a running set of RPC workers plus the master's connections.
type Cluster struct {
	k       int
	g       *graph.Graph
	part    *graph.Partition // worker i is machine i of graph.HashPartition(n, k)
	workers []*Worker
	clients []*rpc.Client
	rounds  int
	msgs    int64
	wbytes  int64
	reg     *obs.Registry

	// rpcTimeout bounds every master->worker call (default 30 s).
	rpcTimeout time.Duration
	// ckptDir/ckptInterval enable barrier checkpointing (SetCheckpoint).
	ckptDir      string
	ckptInterval int
	// fplan injects deterministic faults (SetFaultPlan).
	fplan *fault.Plan
	// recoveries/roundsLost account the last job's fault handling.
	recoveries int
	roundsLost int

	// tracer records master-side spans (SetTracer; nil = off). jobSpan is
	// the span of the job currently driven by runJob.
	tracer  *obs.Tracer
	jobSpan obs.SpanID

	closeMu sync.Mutex
	closed  bool
}

// StartCluster launches k workers on loopback TCP, connects them to each
// other and to the master, and returns the handle. Close releases all
// sockets.
func StartCluster(g *graph.Graph, k int) (*Cluster, error) {
	if k <= 0 {
		return nil, fmt.Errorf("rpcrt: need at least one worker, got %d", k)
	}
	c := &Cluster{k: k, g: g, part: graph.HashPartition(g.NumVertices(), k), rpcTimeout: defaultRPCTimeout,
		workers: make([]*Worker, k), clients: make([]*rpc.Client, k)}
	for i := 0; i < k; i++ {
		if err := c.startWorker(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.wire(); err != nil {
		c.Close()
		return nil, err
	}
	// Verify liveness.
	for i, cl := range c.clients {
		var id int
		if err := callTimeout(cl, "Worker.Ping", struct{}{}, &id, c.rpcTimeout); err != nil || id != i {
			c.Close()
			return nil, fmt.Errorf("rpcrt: worker %d ping failed: %v", i, err)
		}
	}
	return c, nil
}

// startWorker serves a fresh worker i, with the cluster's fault plan, RPC
// timeout and tracer, on a new loopback listener. A previous instance is
// stopped and its peer connections closed; wire connects the new one.
// StartCluster starts every worker here, and recovery every dead one.
func (c *Cluster) startWorker(i int) error {
	if old := c.workers[i]; old != nil {
		old.die()
		closeClients(old.peers)
	}
	w := newWorker(i, c.part, c.g)
	w.fplan, w.rpcTimeout, w.tracer = c.fplan, c.rpcTimeout, c.tracer
	if err := serveWorker(w); err != nil {
		return err
	}
	c.workers[i] = w
	return nil
}

// wire connects the whole cluster anew: it closes every existing
// connection, then dials master -> i for every worker i and i -> j for every
// j != i. No worker dials itself: flush ships only the rows of remote
// machines. After a restart the survivors are re-dialled too, so recovery
// leaves the cluster connected exactly as StartCluster does.
func (c *Cluster) wire() error {
	closeClients(c.clients)
	for _, w := range c.workers {
		closeClients(w.peers)
	}
	for i, w := range c.workers {
		cl, err := rpc.Dial("tcp", w.listener.Addr().String())
		if err != nil {
			return fmt.Errorf("rpcrt: dial worker %d: %w", i, err)
		}
		c.clients[i] = cl
		w.peers = make([]*rpc.Client, c.k)
		for j, p := range c.workers {
			if j == i {
				continue
			}
			if w.peers[j], err = rpc.Dial("tcp", p.listener.Addr().String()); err != nil {
				return fmt.Errorf("rpcrt: peer dial %d->%d: %w", i, j, err)
			}
		}
	}
	return nil
}

// closeClients closes every connection in cls. Errors are ignored: the
// other end may be a dead worker.
func closeClients(cls []*rpc.Client) {
	for _, cl := range cls {
		if cl != nil {
			cl.Close()
		}
	}
}

// serveWorker registers the worker's RPC service, binds a loopback
// listener, and starts the accept loop (without net/rpc's noisy error
// logging on shutdown).
func serveWorker(w *Worker) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", w); err != nil {
		return fmt.Errorf("rpcrt: register worker %d: %w", w.id, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("rpcrt: listen worker %d: %w", w.id, err)
	}
	w.listener = ln
	w.server = srv
	go func(srv *rpc.Server, ln net.Listener) {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}(srv, ln)
	return nil
}

// Close tears down every connection and listener and stops every worker,
// refusing the landings still waiting on one. It is idempotent —
// repeated calls return nil — and collects real shutdown errors; errors
// that only say "already closed" (a crashed worker's listener, a client
// whose transport died with the peer) are not failures and are filtered.
func (c *Cluster) Close() error {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var errs []error
	closeErr := func(what string, err error) {
		if err == nil || errors.Is(err, net.ErrClosed) || errors.Is(err, rpc.ErrShutdown) {
			return
		}
		errs = append(errs, fmt.Errorf("%s: %w", what, err))
	}
	for i, cl := range c.clients {
		if cl != nil {
			closeErr(fmt.Sprintf("client %d", i), cl.Close())
		}
	}
	for _, w := range c.workers {
		if w == nil {
			continue
		}
		for j, p := range w.peers {
			if p != nil {
				closeErr(fmt.Sprintf("worker %d peer %d", w.id, j), p.Close())
			}
		}
		closeErr(fmt.Sprintf("worker %d listener", w.id), w.die())
	}
	return errors.Join(errs...)
}

// Workers returns the cluster size.
func (c *Cluster) Workers() int { return c.k }

// SetRPCTimeout bounds every master->worker and worker->worker call
// (default 30 s; net/rpc itself would block forever on a hung peer).
// d <= 0 disables the bound.
func (c *Cluster) SetRPCTimeout(d time.Duration) {
	c.rpcTimeout = d
	for _, w := range c.workers {
		w.rpcTimeout = d
	}
}

// SetCheckpoint enables barrier checkpointing for subsequent jobs: every
// worker snapshots into dir (per-worker file prefixes) at the barrier after
// superstep 1 and after every interval-th superstep. interval <= 0 means 8.
// An empty dir disables checkpointing.
func (c *Cluster) SetCheckpoint(dir string, interval int) {
	if interval <= 0 {
		interval = 8
	}
	c.ckptDir = dir
	c.ckptInterval = interval
}

// SetFaultPlan injects a deterministic fault plan into subsequent jobs
// (crashes surface in Worker.Step, drops/delays/slowdowns inside the
// workers). Nil removes it.
func (c *Cluster) SetFaultPlan(p *fault.Plan) {
	c.fplan = p
	for _, w := range c.workers {
		w.fplan = p
	}
}

// Recoveries returns how many injected crashes the last job recovered from.
func (c *Cluster) Recoveries() int { return c.recoveries }

// RoundsLost returns how many completed supersteps the last job had to
// re-execute after crashes.
func (c *Cluster) RoundsLost() int { return c.roundsLost }

// SetTracer attaches a span tracer to the master and every worker;
// subsequent jobs record a job → superstep → per-RPC → per-worker span
// hierarchy on the tracer's wall clock. Nil detaches. Perfetto rows are
// named here once: the master is process 0, worker i is process 1+i.
func (c *Cluster) SetTracer(t *obs.Tracer) {
	c.tracer = t
	for _, w := range c.workers {
		w.tracer = t
	}
	if t == nil {
		return
	}
	t.NameProc(0, "master")
	t.NameTrack(0, 0, "supersteps")
	for i := 0; i < c.k; i++ {
		t.NameTrack(0, 1+i, fmt.Sprintf("rpc to worker %d", i))
		t.NameProc(workerProc(i), fmt.Sprintf("worker %d", i))
		t.NameTrack(workerProc(i), workerComputeTrack, "compute")
		for j := 0; j < c.k; j++ {
			if j != i {
				t.NameTrack(workerProc(i), workerRecvTrack(j), fmt.Sprintf("recv from worker %d", j))
			}
		}
	}
}

// SetRegistry attaches a telemetry registry; subsequent jobs record
// per-round histograms (message volume, wall-clock superstep latency) and,
// at job end, per-worker message/byte counters labelled worker=<id>. Nil
// detaches it. rpcrt is the one place wall-clock timing is legitimate —
// simulated-time metrics never mix with these.
func (c *Cluster) SetRegistry(reg *obs.Registry) { c.reg = reg }

// WorkerStats gathers every worker's counters for the current job via the
// Stats RPC, ordered by worker id.
func (c *Cluster) WorkerStats() ([]WorkerStats, error) {
	return fanOut[WorkerStats](c, "Worker.Stats", 0, noArgs)
}

// recordJobMetrics feeds the finished job's per-worker counters into the
// attached registry.
func (c *Cluster) recordJobMetrics() error {
	if c.reg == nil {
		return nil
	}
	stats, err := c.WorkerStats()
	if err != nil {
		return err
	}
	for _, st := range stats {
		lbl := obs.L("worker", strconv.Itoa(st.ID))
		c.reg.Counter("rpcrt_sent_total", lbl).Add(st.Sent)
		c.reg.Counter("rpcrt_recv_total", lbl).Add(st.Recv)
		c.reg.Counter("rpcrt_sent_remote_total", lbl).Add(st.SentRemote)
		c.reg.Counter("rpcrt_recv_remote_total", lbl).Add(st.RecvRemote)
		c.reg.Counter("rpcrt_sent_bytes_total", lbl).Add(st.SentBytes)
		c.reg.Counter("rpcrt_recv_bytes_total", lbl).Add(st.RecvBytes)
		c.reg.Counter("rpcrt_sent_frames_total", lbl).Add(st.SentFrames)
		c.reg.Counter("rpcrt_recv_frames_total", lbl).Add(st.RecvFrames)
		c.reg.Counter("rpcrt_deliver_retries_total", lbl).Add(st.Retries)
	}
	return nil
}

// Rounds returns the supersteps of the last job.
func (c *Cluster) Rounds() int { return c.rounds }

// MessagesSent returns the total messages of the last job.
func (c *Cluster) MessagesSent() int64 { return c.msgs }

// WireBytesSent returns the exact encoded bytes of all delivery frames the
// last job pushed between workers, as summed from the per-round replies.
func (c *Cluster) WireBytesSent() int64 { return c.wbytes }

// fanOut calls method on every worker concurrently, each with the argument
// args returns, and returns the replies in worker order — or the first
// failure in worker order, naming the method and the worker. Under a
// non-zero parent every call gets its own master-side RPC span, whose id
// args receives so it can ride to the worker as the trace context the
// worker's span parents under.
func fanOut[R any](c *Cluster, method string, parent obs.SpanID, args func(rpcSpan obs.SpanID) any) ([]R, error) {
	var wg sync.WaitGroup
	replies := make([]R, c.k)
	errs := make([]error, c.k)
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *rpc.Client) {
			defer wg.Done()
			var span obs.SpanID
			if parent != 0 {
				span = c.tracer.Begin(parent, method, "rpc", 0, 1+i, obs.L("worker", strconv.Itoa(i)))
			}
			errs[i] = callTimeout(cl, method, args(span), &replies[i], c.rpcTimeout)
			if errs[i] != nil {
				c.tracer.End(span, obs.L("error", errs[i].Error()))
			} else {
				c.tracer.End(span)
			}
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rpcrt: %s on worker %d: %w", method, i, err)
		}
	}
	return replies, nil
}

// noArgs is the argument of the RPCs that take none.
func noArgs(obs.SpanID) any { return struct{}{} }

// startJobAll resets every worker and installs the program (no traffic).
// A non-empty restore directory then rolls every worker back to its latest
// checkpoint there, under the trace span restoreSpan.
func (c *Cluster) startJobAll(spec JobSpec, restore string, restoreSpan obs.SpanID) error {
	_, err := fanOut[struct{}](c, "Worker.StartJob", 0, func(obs.SpanID) any {
		return StartJobArgs{Spec: spec, Restore: restore, Trace: uint64(restoreSpan)}
	})
	return err
}

// ckptMeta is the master's record of the last checkpoint cut: the barrier
// round and the message and wire-byte totals through that round.
type ckptMeta struct {
	round  int
	msgs   int64
	wbytes int64
}

// checkpointAll has every worker snapshot its barrier state; returns the
// bytes written across workers. The cluster-wide cut gets one master-side
// span under the job span; the per-worker write spans parent under it.
func (c *Cluster) checkpointAll(round int) (int64, error) {
	span := c.tracer.Begin(c.jobSpan, "checkpoint", "ckpt", 0, 0,
		obs.L("round", strconv.Itoa(round)))
	replies, err := fanOut[int64](c, "Worker.Checkpoint", 0, func(obs.SpanID) any {
		return CkptArgs{Dir: c.ckptDir, Round: round, Trace: uint64(span)}
	})
	if err != nil {
		c.tracer.End(span, obs.L("error", err.Error()))
		return 0, err
	}
	var bytes int64
	for _, b := range replies {
		bytes += b
	}
	c.tracer.End(span, obs.L("bytes", strconv.FormatInt(bytes, 10)))
	return bytes, nil
}

// runJob drives the BSP loop — one Step per worker per superstep, the first
// seeding, until a superstep sends no message — and returns every worker's
// Collect reply, in worker order. With checkpointing enabled
// the master cuts a cluster-wide snapshot at the barrier; when a superstep
// fails it restarts dead workers, rolls every worker back to the latest
// checkpoint, and silently replays forward — the determinism contract (the
// engine's delivery order, checkpointed RNG streams) makes the recovered
// run bit-for-bit identical to an unfaulted one.
func (c *Cluster) runJob(spec JobSpec) ([][]byte, error) {
	c.jobSpan = c.tracer.Begin(0, "job", "rpcrt", 0, 0, obs.L("program", spec.Program))
	err := c.runJobSteps(spec)
	var parts [][]byte
	if err == nil {
		parts, err = fanOut[[]byte](c, "Worker.Collect", c.jobSpan, noArgs)
	}
	if err != nil {
		c.tracer.End(c.jobSpan, obs.L("error", err.Error()))
	} else {
		c.tracer.End(c.jobSpan, obs.L("rounds", strconv.Itoa(c.rounds)))
	}
	c.jobSpan = 0
	return parts, err
}

// runJobSteps is runJob's body; the split keeps the job span balanced
// across the many error returns.
func (c *Cluster) runJobSteps(spec JobSpec) error {
	c.rounds = 0
	c.msgs = 0
	c.wbytes = 0
	c.recoveries = 0
	c.roundsLost = 0
	if err := c.startJobAll(spec, "", 0); err != nil {
		return err
	}
	// Per-round telemetry (rpcrt is real execution, so wall clock is fair
	// game here, unlike the simulator's deterministic reports). Replayed
	// rounds are not re-observed: their statistics are already recorded,
	// and the recovery cost has its own counters.
	var roundMsgs, roundBytes, roundWall *obs.Histogram
	if c.reg != nil {
		roundMsgs = c.reg.Histogram("rpcrt_round_msgs")
		roundBytes = c.reg.Histogram("rpcrt_round_wire_bytes")
		roundWall = c.reg.Histogram("rpcrt_round_wall_seconds")
	}
	observeRound := func(timer obs.Timer, r RoundReply) {
		if c.reg == nil {
			return
		}
		timer.Stop()
		roundMsgs.Observe(float64(r.Msgs))
		roundBytes.Observe(float64(r.WireBytes))
	}
	last := ckptMeta{round: -1}
	replayTo := 0 // rounds <= replayTo are replays: skip telemetry
	for {
		round := c.rounds + 1
		roundSpan := c.tracer.Begin(c.jobSpan, "superstep", "rpcrt", 0, 0,
			obs.L("round", strconv.Itoa(round)))
		timer := obs.StartTimer(roundWall)
		replies, err := fanOut[RoundReply](c, "Worker.Step", roundSpan, func(rpcSpan obs.SpanID) any {
			return StepArgs{Round: round, Trace: uint64(rpcSpan)}
		})
		if err != nil {
			c.tracer.End(roundSpan, obs.L("error", err.Error()))
			if c.ckptDir == "" || last.round < 0 {
				return err
			}
			if rerr := c.recoverJob(spec, last); rerr != nil {
				return fmt.Errorf("rpcrt: recovery after %v failed: %w", err, rerr)
			}
			replayTo = max(replayTo, c.rounds)
			c.rounds, c.msgs, c.wbytes = last.round, last.msgs, last.wbytes
			continue
		}
		c.tracer.End(roundSpan)
		var next RoundReply
		for _, r := range replies {
			next.Msgs += r.Msgs
			next.WireBytes += r.WireBytes
		}
		c.rounds++
		c.msgs += next.Msgs
		c.wbytes += next.WireBytes
		if c.rounds > replayTo {
			observeRound(timer, next)
		}
		if next.Msgs == 0 {
			break
		}
		if c.rounds > 100000 {
			return fmt.Errorf("rpcrt: job did not converge")
		}
		if c.ckptDir != "" && c.rounds != last.round &&
			(c.rounds == 1 || c.rounds%c.ckptInterval == 0) {
			bytes, err := c.checkpointAll(c.rounds)
			if err != nil {
				return fmt.Errorf("rpcrt: checkpoint at round %d: %w", c.rounds, err)
			}
			last = ckptMeta{round: c.rounds, msgs: c.msgs, wbytes: c.wbytes}
			if c.reg != nil {
				c.reg.Counter("rpcrt_ckpt_writes_total").Add(int64(c.k))
				c.reg.Counter("rpcrt_ckpt_bytes_total").Add(bytes)
			}
		}
	}
	return c.recordJobMetrics()
}

// pingTimeout bounds the liveness probes during recovery; a dead worker's
// open connections answer quickly (dead-flag check), and a fully gone one
// should not stall the restart of its peers.
const pingTimeout = 2 * time.Second

// recoverJob rolls the cluster back to the latest checkpoint: a Ping sweep
// finds the dead workers, startWorker replaces them, wire reconnects the
// cluster as StartCluster does, and one StartJob fan-out reinstalls the
// program on every worker and restores it from the checkpoint — restarted
// and surviving workers go through the same reset + reload path, so no
// stale per-round state survives. The whole sequence is one recovery span
// under the job span, so the crash shows up in the trace as an annotated
// gap between the failed superstep and the replay; it names the restarted
// workers, and the per-worker restore spans nest inside it.
func (c *Cluster) recoverJob(spec JobSpec, last ckptMeta) (err error) {
	span := c.tracer.Begin(c.jobSpan, "recovery", "rpcrt", 0, 0,
		obs.L("rollback_to", strconv.Itoa(last.round)))
	var restarted []string
	defer func() {
		done := obs.L("rounds_lost", strconv.Itoa(c.rounds-last.round))
		if err != nil {
			done = obs.L("error", err.Error())
		}
		c.tracer.End(span, obs.L("restarted", strings.Join(restarted, ",")), done)
	}()
	for i, cl := range c.clients {
		var id int
		if perr := callTimeout(cl, "Worker.Ping", struct{}{}, &id, pingTimeout); perr == nil && id == i {
			continue
		}
		if err = c.startWorker(i); err != nil {
			return err
		}
		restarted = append(restarted, strconv.Itoa(i))
		if c.reg != nil {
			c.reg.Counter("rpcrt_worker_restarts_total").Inc()
		}
	}
	if err = c.wire(); err != nil {
		return err
	}
	if err = c.startJobAll(spec, c.ckptDir, span); err != nil {
		return err
	}
	lost := c.rounds - last.round
	c.recoveries++
	c.roundsLost += lost
	if c.reg != nil {
		c.reg.Counter("rpcrt_recoveries_total").Inc()
		c.reg.Counter("rpcrt_recovery_rounds_lost_total").Add(int64(lost))
	}
	return nil
}

// eachResult calls fn for every record of the Collect replies parts. A
// reply of partial records, or a record outside rows × n, is an error
// wrapping rec.ErrCorrupt; fn has then seen the records before it.
func eachResult(parts [][]byte, rows, n int, fn func(row, v uint32, val float64)) error {
	for i, part := range parts {
		c := rec.NewCursor(part, rec.ErrCorrupt)
		for c.Len() > 0 {
			row, v, val := c.U32(), c.U32(), math.Float64frombits(c.U64())
			if c.Err() == nil && (int64(row) >= int64(rows) || int64(v) >= int64(n)) {
				c.Fail("record (%d, %d) outside %d rows of %d vertices", row, v, rows, n)
			}
			if err := c.Err(); err != nil {
				return fmt.Errorf("rpcrt: worker %d: %w", i, err)
			}
			fn(row, v, val)
		}
	}
	return nil
}

// RunMSSP computes shortest-path distances from every source over the RPC
// cluster. dist[i][v] is +Inf where unreachable.
func (c *Cluster) RunMSSP(sources []graph.VertexID) ([][]float64, error) {
	parts, err := c.runJob(JobSpec{Program: "mssp", Sources: sources})
	if err != nil {
		return nil, err
	}
	dist := make([][]float64, len(sources))
	for i := range dist {
		dist[i] = make([]float64, c.g.NumVertices())
		for v := range dist[i] {
			dist[i][v] = math.Inf(1)
		}
	}
	if err := eachResult(parts, len(sources), c.g.NumVertices(), func(row, v uint32, val float64) {
		dist[row][v] = val
	}); err != nil {
		return nil, err
	}
	return dist, nil
}

// maxWalks bounds RunBPPR's walk count: a bundle of walks rides in the
// envelope's float32 payload, which counts exactly only up to 2^24.
const maxWalks = 1 << 24

// RunBPPR runs walks per-vertex α-decay random walks over the RPC cluster
// and returns the PPR estimates as a map from (src, target) to probability.
func (c *Cluster) RunBPPR(walks int, alpha float64, seed uint64) (map[[2]graph.VertexID]float64, error) {
	if walks < 1 || walks > maxWalks {
		return nil, fmt.Errorf("rpcrt: BPPR needs 1..%d walks per vertex, got %d", maxWalks, walks)
	}
	parts, err := c.runJob(JobSpec{Program: "bppr", Walks: int32(walks), Alpha: alpha, Seed: seed})
	if err != nil {
		return nil, err
	}
	records, n := 0, c.g.NumVertices()
	for _, part := range parts {
		records += len(part) / resultLen
	}
	out := make(map[[2]graph.VertexID]float64, records)
	if err := eachResult(parts, n, n, func(src, v uint32, walksAt float64) {
		out[[2]graph.VertexID{src, v}] = walksAt / float64(walks)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// RunBKHS counts, for every source, the vertices within k hops (excluding
// the source).
func (c *Cluster) RunBKHS(sources []graph.VertexID, k int) ([]int64, error) {
	parts, err := c.runJob(JobSpec{Program: "bkhs", Sources: sources, K: int32(k)})
	if err != nil {
		return nil, err
	}
	counts := make([]int64, len(sources))
	if err := eachResult(parts, len(sources), c.g.NumVertices(), func(row, _ uint32, reached float64) {
		counts[row] += int64(reached)
	}); err != nil {
		return nil, err
	}
	return counts, nil
}
