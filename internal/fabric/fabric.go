package fabric

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// Process-wide fabric metrics on the shared obs registry: every fabric
// instance feeds the same counters and histograms, so /metrics shows
// fleet-wide delivery traffic next to the engine's and the chaos
// runtime's series. All are lock-free atomics —
// cheap enough to leave on the send path.
var (
	obsMessages    = obs.Default().Counter("fabric.messages_sent")
	obsBytes       = obs.Default().Counter("fabric.bytes_on_wire")
	obsRetries     = obs.Default().Counter("fabric.retries")
	obsDrops       = obs.Default().Counter("fabric.drops")
	obsRejections  = obs.Default().Counter("fabric.rejections")
	obsGiveUps     = obs.Default().Counter("fabric.giveups")
	obsRemaps      = obs.Default().Counter("fabric.remaps")
	obsAttemptHist = obs.Default().Histogram("fabric.send_attempt_seconds")
	obsProcHist    = obs.Default().Histogram("fabric.op_proc_seconds")
)

// Config tunes the fabric.
type Config struct {
	// TimeScale converts virtual seconds (the cost model's unit) to real
	// wall-clock sleep: realDuration = virtualSeconds × TimeScale.
	// Zero means 1ms of real time per virtual second — fast tests, still
	// measurable.
	TimeScale time.Duration
	// Seed drives XOR branch choices and retry jitter.
	Seed uint64
	// Faults, when set, injects runtime faults into hosts and senders
	// (see FaultController). A chaos supervisor typically pairs it with
	// Remap to heal what the faults break.
	Faults FaultController
	// Tracer, when set, records one span per instance ("fabric.run")
	// with a child span per cross-host message ("fabric.send"). Nil
	// leaves the send path allocation-free (see BenchmarkObsDisabled).
	Tracer *obs.Tracer
}

func (c Config) timeScale() time.Duration {
	if c.TimeScale <= 0 {
		return time.Millisecond
	}
	return c.TimeScale
}

// Fabric is a deployed workflow: per-server HTTP hosts with the mapped
// operations registered on them. Create with Deploy, run instances with
// Run or RunContext, and always Close it.
type Fabric struct {
	w   *workflow.Workflow
	n   *network.Network
	cfg Config

	hosts []*host

	// rootCtx is cancelled by Close so every in-flight goroutine —
	// operation starts, retry loops, slot waits — unwinds promptly
	// instead of leaking.
	rootCtx context.Context
	cancel  context.CancelFunc

	// attemptHist records this fabric's per-attempt delivery latency
	// (wall seconds); the process-wide histogram on the obs registry is
	// fed in parallel.
	attemptHist *obs.Histogram

	// pool is the keep-alive connection pool every send goes through;
	// without it each POST dialed (and discarded) its own TCP
	// connection once DefaultTransport's 2-per-host idle cap was hit.
	pool *connPool

	mu        sync.Mutex
	mp        deploy.Mapping // live placement; Remap rewrites it mid-run
	urls      []string       // urls[op] = endpoint of the operation's current host
	rng       *stats.RNG
	instances map[int]*instance
	nextID    int
	stats     Stats
}

// host is one emulated server: an HTTP listener plus a FIFO execution
// slot modelling a single CPU.
type host struct {
	server  int
	power   float64
	slot    chan struct{} // capacity 1: one operation at a time
	httpSrv *httptest.Server
}

// instance tracks one running workflow execution.
type instance struct {
	id      int
	ctx     context.Context
	rng     *stats.RNG
	span    *obs.Span // per-instance trace root; nil when tracing is off
	mu      sync.Mutex
	arrived map[int]int  // node -> executed-in-edge arrivals so far
	started map[int]bool // node -> processing already triggered
	done    chan struct{}
	start   time.Time
	elapsed time.Duration
	execOps int
	busy    []float64 // per-server virtual CPU-seconds burned by this instance
}

// Deploy builds hosts for every network server and registers the mapped
// operations. The mapping must be total.
func Deploy(w *workflow.Workflow, n *network.Network, mp deploy.Mapping, cfg Config) (*Fabric, error) {
	if err := mp.Validate(w, n); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fabric{
		w: w, n: n, mp: mp.Clone(), cfg: cfg,
		rootCtx:     ctx,
		cancel:      cancel,
		urls:        make([]string, w.M()),
		rng:         stats.NewRNG(cfg.Seed),
		instances:   map[int]*instance{},
		attemptHist: obs.NewHistogram(),
		pool:        newConnPool(len(n.Servers)),
	}
	for s := range n.Servers {
		h := &host{server: s, power: n.Servers[s].PowerHz, slot: make(chan struct{}, 1)}
		mux := http.NewServeMux()
		srv := s
		mux.HandleFunc("POST /op/", func(rw http.ResponseWriter, r *http.Request) {
			f.handleMessage(rw, r, srv)
		})
		h.httpSrv = httptest.NewServer(mux)
		f.hosts = append(f.hosts, h)
	}
	for op, s := range f.mp {
		f.urls[op] = fmt.Sprintf("%s/op/%d", f.hosts[s].httpSrv.URL, op)
	}
	return f, nil
}

// Close aborts every in-flight instance, shuts down every host and
// releases the connection pool's idle keep-alives.
func (f *Fabric) Close() {
	f.cancel()
	for _, h := range f.hosts {
		h.httpSrv.Close()
	}
	f.pool.close()
}

// Dials reports how many TCP connections this fabric's pool has opened
// — with keep-alive reuse working it stays far below Stats().Messages.
func (f *Fabric) Dials() int64 { return f.pool.Dials() }

// Mapping returns a snapshot of the live placement.
func (f *Fabric) Mapping() deploy.Mapping {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mp.Clone()
}

// Stats returns a snapshot of the delivery counters. Attempts is
// derived from the per-attempt latency histogram, so it is exact even
// though it is not carried in the mutex-guarded struct.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	st := f.stats
	f.mu.Unlock()
	st.Attempts = int(f.attemptHist.Count())
	return st
}

// AttemptLatency summarizes this fabric's per-attempt delivery latency
// (wall seconds): every cross-host delivery attempt — accepted,
// dropped, or rejected — contributes one observation.
func (f *Fabric) AttemptLatency() obs.HistogramSnapshot {
	return f.attemptHist.Snapshot()
}

// Remap moves operation op to server s at runtime: subsequent starts and
// deliveries use the new host, and senders already in their retry loop
// pick up the new address on their next attempt. This is the fabric-side
// half of a self-healing repair.
func (f *Fabric) Remap(op, s int) error {
	if op < 0 || op >= f.w.M() {
		return fmt.Errorf("fabric: Remap of unknown operation %d", op)
	}
	if s < 0 || s >= len(f.hosts) {
		return fmt.Errorf("fabric: Remap of operation %d to unknown server %d", op, s)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mp[op] == s {
		return nil
	}
	f.mp[op] = s
	f.urls[op] = fmt.Sprintf("%s/op/%d", f.hosts[s].httpSrv.URL, op)
	f.stats.Remaps++
	obsRemaps.Inc()
	return nil
}

// serverOf returns the operation's current server.
func (f *Fabric) serverOf(op int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mp[op]
}

// urlOf returns the operation's current endpoint.
func (f *Fabric) urlOf(op int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.urls[op]
}

// RunResult reports one executed instance.
type RunResult struct {
	Makespan     time.Duration // wall-clock from injection to sink completion
	ExecutedOps  int
	MessagesSent int   // HTTP messages between distinct hosts (cumulative delta)
	BytesOnWire  int64 // XML bytes between distinct hosts (cumulative delta)
	// Busy holds per-server virtual CPU-seconds (Cycles/PowerHz, scaled by
	// any active fault ProcFactor but NOT by TimeScale) burned by this
	// instance. It is the fabric twin of sim.RunResult.BusyTime: the
	// observed-load signal the autopilot's drift detector samples, and it
	// is deterministic given the seed because it counts virtual rather
	// than wall time.
	Busy []float64
}

// Run executes one workflow instance end to end and blocks until the
// sink completes.
func (f *Fabric) Run() (RunResult, error) {
	return f.RunContext(context.Background())
}

// RunContext executes one workflow instance end to end, aborting cleanly
// — no leaked goroutines or stranded hosts — when ctx is cancelled or
// the fabric is closed.
func (f *Fabric) RunContext(ctx context.Context) (RunResult, error) {
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	stop := context.AfterFunc(f.rootCtx, cancelRun)
	defer stop()

	f.mu.Lock()
	id := f.nextID
	f.nextID++
	inst := &instance{
		id:      id,
		ctx:     runCtx,
		rng:     f.rng.Split(),
		span:    f.cfg.Tracer.StartSpan("fabric.run"),
		arrived: map[int]int{},
		started: map[int]bool{},
		done:    make(chan struct{}),
		start:   time.Now(),
		busy:    make([]float64, len(f.hosts)),
	}
	inst.span.SetInt("instance", int64(id))
	f.instances[id] = inst
	msgs0, bytes0 := f.stats.MessagesSent, f.stats.BytesOnWire
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.instances, id)
		f.mu.Unlock()
	}()

	// Inject the source: it has no inbound message, so trigger directly.
	// Run it off this goroutine so cancellation is observed even while
	// the source is still processing.
	go f.startOperation(inst, f.w.Source())

	select {
	case <-inst.done:
	case <-runCtx.Done():
		inst.span.SetAttr("outcome", "aborted")
		inst.span.End()
		return RunResult{}, fmt.Errorf("fabric: instance %d aborted: %w", id, context.Cause(runCtx))
	case <-time.After(60 * time.Second):
		cancelRun()
		inst.span.SetAttr("outcome", "timeout")
		inst.span.End()
		return RunResult{}, fmt.Errorf("fabric: instance %d timed out", id)
	}
	inst.span.SetAttr("outcome", "completed")
	inst.span.SetInt("executed_ops", int64(inst.execOps))
	inst.span.SetFloat("makespan_s", inst.elapsed.Seconds())
	inst.span.End()

	f.mu.Lock()
	defer f.mu.Unlock()
	return RunResult{
		Makespan:     inst.elapsed,
		ExecutedOps:  inst.execOps,
		MessagesSent: f.stats.MessagesSent - msgs0,
		BytesOnWire:  f.stats.BytesOnWire - bytes0,
		Busy:         append([]float64(nil), inst.busy...),
	}, nil
}

// handleMessage receives an XML envelope addressed to an operation
// hosted on server s and advances the instance's state machine.
func (f *Fabric) handleMessage(rw http.ResponseWriter, r *http.Request, s int) {
	if fc := f.cfg.Faults; fc != nil && fc.ServerDown(s) {
		http.Error(rw, "server down", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	env, err := DecodeEnvelope(body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	f.mu.Lock()
	inst, ok := f.instances[env.InstanceID]
	f.mu.Unlock()
	if !ok {
		http.Error(rw, "unknown instance", http.StatusNotFound)
		return
	}
	if env.EdgeID < 0 || env.EdgeID >= len(f.w.Edges) {
		http.Error(rw, "unknown edge", http.StatusBadRequest)
		return
	}
	node := f.w.Edges[env.EdgeID].To
	if f.serverOf(node) != s {
		http.Error(rw, "operation not deployed here", http.StatusMisdirectedRequest)
		return
	}
	// Count on the receiving side, before the delivery can trigger any
	// downstream work: when the sink completes, every message that gated
	// it has already been accounted.
	f.addStat(func(st *Stats) {
		st.MessagesSent++
		st.BytesOnWire += int64(len(body))
	})
	obsMessages.Inc()
	obsBytes.Add(int64(len(body)))
	rw.WriteHeader(http.StatusAccepted)
	f.deliver(inst, node)
}

// deliver counts an arrival at node and starts it once its join
// condition holds.
func (f *Fabric) deliver(inst *instance, node int) {
	inst.mu.Lock()
	if inst.started[node] {
		inst.mu.Unlock()
		return // OR join already fired
	}
	inst.arrived[node]++
	ready := false
	switch f.w.Nodes[node].Kind {
	case workflow.OrJoin:
		ready = true
	case workflow.AndJoin, workflow.XorJoin:
		// AND joins need every executed inbound branch. The fabric does
		// not know which branches execute ahead of time, so AND joins
		// conservatively wait for all inbound edges whose source can
		// execute this instance; for AND blocks all branches always run,
		// so the static in-degree is exact. XOR joins receive exactly one
		// message.
		need := len(f.w.In(node))
		if f.w.Nodes[node].Kind == workflow.XorJoin {
			need = 1
		}
		ready = inst.arrived[node] >= need
	default:
		ready = true // single inbound edge
	}
	if ready {
		inst.started[node] = true
	}
	inst.mu.Unlock()
	if ready {
		go f.startOperation(inst, node)
	}
}

// startOperation occupies the current host's FIFO slot, burns the scaled
// CPU time, then fans out the outgoing messages. A crashed host is
// handled by waiting for either the self-healing controller to re-place
// the operation or the server to rejoin; an operation that moves while
// queued restarts on its new host.
func (f *Fabric) startOperation(inst *instance, node int) {
	fc := f.cfg.Faults
	scale := f.cfg.timeScale()
	var h *host
	for {
		if inst.ctx.Err() != nil {
			return
		}
		s := f.serverOf(node)
		if fc != nil && fc.ServerDown(s) {
			if !sleepCtx(inst.ctx, scale) {
				return
			}
			continue
		}
		h = f.hosts[s]
		select {
		case h.slot <- struct{}{}: // acquire the CPU
		case <-inst.ctx.Done():
			return
		}
		if cur := f.serverOf(node); cur != s || (fc != nil && fc.ServerDown(s)) {
			<-h.slot // moved (or died) while queued; retarget
			continue
		}
		break
	}
	proc := f.w.Nodes[node].Cycles / h.power
	if fc != nil {
		proc *= fc.ProcFactor(h.server)
	}
	procStart := time.Now()
	ok := sleepVirtualCtx(inst.ctx, proc, scale)
	<-h.slot // release
	obsProcHist.Observe(time.Since(procStart).Seconds())
	if !ok {
		return
	}

	inst.mu.Lock()
	inst.execOps++
	inst.busy[h.server] += proc
	inst.mu.Unlock()

	if node == f.w.Sink() {
		inst.elapsed = time.Since(inst.start)
		close(inst.done)
		return
	}

	outs := f.w.Out(node)
	if f.w.Nodes[node].Kind == workflow.XorSplit {
		inst.mu.Lock()
		ei := f.pickBranch(inst, node)
		inst.mu.Unlock()
		f.send(inst, ei, h.server)
		return
	}
	var wg sync.WaitGroup
	for _, ei := range outs {
		wg.Add(1)
		go func(ei int) {
			defer wg.Done()
			f.send(inst, ei, h.server)
		}(ei)
	}
	wg.Wait()
}

// pickBranch resolves an XOR split with the instance's RNG (callers hold
// inst.mu).
func (f *Fabric) pickBranch(inst *instance, node int) int {
	outs := f.w.Out(node)
	var total float64
	for _, ei := range outs {
		total += f.w.Edges[ei].Weight
	}
	x := inst.rng.Float64() * total
	for _, ei := range outs {
		x -= f.w.Edges[ei].Weight
		if x < 0 {
			return ei
		}
	}
	return outs[len(outs)-1]
}

// beginSend opens the per-message trace span. With tracing off the
// instance span is nil and so is the child — the call costs two nil
// checks and zero allocations.
func (f *Fabric) beginSend(inst *instance, ei int) *obs.Span {
	sp := inst.span.StartChild("fabric.send")
	sp.SetInt("edge", int64(ei))
	return sp
}

// observeAttempt records one cross-host delivery attempt's wall latency
// into the fabric's own histogram and the process-wide one. Lock-free
// atomics; zero allocations.
func (f *Fabric) observeAttempt(start time.Time) {
	d := time.Since(start).Seconds()
	f.attemptHist.Observe(d)
	obsAttemptHist.Observe(d)
}

// endSend closes the per-message span with its outcome and attempt
// count. No-op (and allocation-free) on a nil span.
func endSend(sp *obs.Span, outcome string, attempts int) {
	sp.SetAttr("outcome", outcome)
	sp.SetInt("attempts", int64(attempts))
	sp.End()
}

// send transfers one message from the server that executed the edge's
// source: co-located deliveries are immediate; cross-host messages sleep
// the scaled transfer time and then POST real XML. Injected losses,
// down-host rejections and stale addresses are retried under the
// fabric's retry policy — ack timeout, exponential backoff with jitter —
// re-resolving the destination each attempt so mid-flight re-placements
// are followed. Every cross-host attempt contributes one observation to
// the per-attempt latency histograms, whatever its outcome.
func (f *Fabric) send(inst *instance, ei, from int) {
	edge := f.w.Edges[ei]
	fc := f.cfg.Faults
	scale := f.cfg.timeScale()
	sp := f.beginSend(inst, ei)
	for attempt := 1; ; attempt++ {
		if inst.ctx.Err() != nil {
			endSend(sp, "aborted", attempt-1)
			return
		}
		to := f.serverOf(edge.To)
		if from == to {
			f.deliver(inst, edge.To)
			endSend(sp, "local", 0)
			return
		}
		attemptStart := time.Now()
		if fc != nil && (fc.Unreachable(from, to) || fc.DropMessage(from, to)) {
			// Lost in transit: the sender burns its ack timeout, backs
			// off, and tries again.
			f.addStat(func(st *Stats) { st.Drops++ })
			obsDrops.Inc()
			f.observeAttempt(attemptStart)
			if !f.retryWait(inst, attempt) {
				endSend(sp, "gave-up", attempt)
				return
			}
			continue
		}
		transfer := f.n.TransferTime(from, to, edge.SizeBits)
		if fc != nil {
			transfer *= fc.TransferFactor(from, to)
		}
		if !sleepVirtualCtx(inst.ctx, transfer, scale) {
			f.observeAttempt(attemptStart)
			endSend(sp, "aborted", attempt)
			return
		}
		env := NewEnvelope(f.w.Name, inst.id, ei, edge.SizeBits)
		data, err := env.Encode()
		if err != nil {
			panic(fmt.Sprintf("fabric: encoding envelope: %v", err))
		}
		resp, err := f.pool.post(f.urlOf(edge.To), "application/xml", bytes.NewReader(data))
		if err != nil {
			// The fabric is in-process; a failed POST means the fabric
			// was closed mid-run. Drop the message silently.
			f.observeAttempt(attemptStart)
			endSend(sp, "closed", attempt)
			return
		}
		code := resp.StatusCode
		// Drain before close so the connection returns to the idle pool
		// instead of being severed mid-body.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		f.observeAttempt(attemptStart)
		if code == http.StatusAccepted {
			endSend(sp, "accepted", attempt)
			return // accounted by the receiving host
		}
		// Rejected: a down host (503) or a stale address after a remap
		// (421). Back off and retry against the re-resolved placement.
		f.addStat(func(st *Stats) { st.Rejections++ })
		obsRejections.Inc()
		if !f.retryWait(inst, attempt) {
			endSend(sp, "gave-up", attempt)
			return
		}
	}
}

// retryWait sleeps one ack timeout plus the policy backoff for the given
// attempt and accounts the retry; it returns false when the message is
// out of attempts or the instance was cancelled.
func (f *Fabric) retryWait(inst *instance, attempt int) bool {
	if attempt >= MaxAttempts {
		f.addStat(func(st *Stats) { st.GiveUps++ })
		obsGiveUps.Inc()
		return false
	}
	f.mu.Lock()
	backoff := Backoff(attempt, f.rng)
	f.mu.Unlock()
	if !sleepVirtualCtx(inst.ctx, AckTimeout+backoff, f.cfg.timeScale()) {
		return false
	}
	f.addStat(func(st *Stats) { st.Retries++ })
	obsRetries.Inc()
	return true
}

func (f *Fabric) addStat(apply func(*Stats)) {
	f.mu.Lock()
	apply(&f.stats)
	f.mu.Unlock()
}

// sleepVirtualCtx sleeps virtualSeconds scaled by the configured time
// scale, returning false if ctx was cancelled first.
func sleepVirtualCtx(ctx context.Context, virtualSeconds float64, scale time.Duration) bool {
	if virtualSeconds <= 0 {
		return ctx.Err() == nil
	}
	return sleepCtx(ctx, time.Duration(virtualSeconds*float64(scale)))
}

// sleepCtx sleeps d, returning false if ctx was cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
