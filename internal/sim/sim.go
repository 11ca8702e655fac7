// Package sim is a discrete-event simulator for deployed workflows. It is
// the reproduction's stand-in for the paper's (unreleased) experimental
// testbed: given a workflow, a server network and a mapping, it *executes*
// the workflow — operations queue FIFO on their servers, messages travel
// over links, AND joins rendezvous, OR joins fire on first arrival, XOR
// splits pick a random branch — and measures the makespan and per-server
// busy time.
//
// The simulator serves two purposes:
//
//   - validation: the expected serial time it measures converges to the
//     analytic, probability-amortised Texecute of internal/cost, which
//     grounds the cost model the algorithms optimize;
//   - extension: it reports *makespan* (critical-path time with per-server
//     queueing and optional bus contention), a truer notion of "fastest
//     closing of each patient case" than the paper's serial sum.
//
// RunOnce, Trace, Simulate and SimulateStream all play on one event loop
// (execute): a single execution arriving at t = 0, or a Poisson stream of
// executions sharing the servers.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// Process-wide simulator metrics on the shared obs registry. The
// histograms record *virtual* seconds — the cost model's unit — so
// /metrics splits simulated time into execution cost per operation and
// communication cost per message hop, the two quantities the paper's
// evaluation turns on. Lock-free atomics, safe to leave on in the
// event loop.
var (
	obsSimRuns     = obs.Default().Counter("sim.runs")
	obsSimOpsHist  = obs.Default().Histogram("sim.op_proc_virtual_seconds")
	obsSimMsgHist  = obs.Default().Histogram("sim.transfer_virtual_seconds")
	obsSimMsgBits  = obs.Default().Counter("sim.message_bits")
	obsSimLostOps  = obs.Default().Counter("sim.lost_ops")
	obsSimLostMsgs = obs.Default().Counter("sim.lost_messages")
)

// Config controls a simulation.
type Config struct {
	// Runs is the number of Monte-Carlo executions; zero means 1 000.
	Runs int
	// Seed drives XOR branch choices deterministically.
	Seed uint64
	// BusContention serializes transmissions over a bus network: the
	// shared medium carries one message at a time. Ignored on non-bus
	// topologies. Off by default, matching the paper's contention-free
	// cost model.
	BusContention bool
	// InfiniteServers disables per-server FIFO queueing, yielding the pure
	// critical path of the mapped workflow.
	InfiniteServers bool
	// Injector, when set, perturbs every execution with runtime faults
	// (crashes, slow links, message loss) and self-healing re-placements.
	// Implementations live in internal/chaos; the simulator only knows
	// the call points.
	Injector Injector
	// Tracer, when set, records one "sim.run" span per execution (and a
	// "sim.simulate" root around Monte-Carlo batches) with makespan and
	// event counts. Nil leaves tracing off at zero cost.
	Tracer *obs.Tracer

	// onEvent, when set (via Trace), receives every simulation event.
	onEvent func(Event)
	// parent nests per-run spans under a batch root (set by Simulate).
	parent *obs.Span
}

// Injector is consulted by RunOnce to inject runtime faults into one
// simulated execution. All times are virtual seconds; within one run the
// simulator calls these with non-decreasing t (the event-heap time), so
// an implementation can advance an internal fault timeline lazily.
type Injector interface {
	// Place returns the server node u runs on when it becomes ready at
	// time t — a self-healing controller may have moved it off its
	// original placement.
	Place(u int, t float64) int
	// OpStart is consulted when node u is about to start on server s at
	// time t. It returns extra virtual seconds before processing begins
	// (downtime waits, redeployment latency) and whether the operation
	// can run at all; ok=false marks it lost (a dead server that never
	// rejoins and no controller to move the work).
	OpStart(u, s int, t float64) (delay float64, ok bool)
	// ProcFactor scales node u's processing time on server s at time t
	// (operation latency spikes).
	ProcFactor(u, s int, t float64) float64
	// Transfer perturbs the message on edge ei from server from to
	// server to departing at time t with unperturbed transfer time base.
	// It returns the effective transfer time — slowdowns, partition
	// waits, loss-retry rounds — and whether the message is ultimately
	// delivered; delivered=false (retry budget exhausted) loses the
	// message and whatever depends on it.
	Transfer(ei, from, to int, t, base float64) (effective float64, delivered bool)
}

// DefaultRuns is the Monte-Carlo run count used when Config.Runs is zero.
const DefaultRuns = 1000

// RunResult reports one simulated execution.
type RunResult struct {
	Makespan     float64   // completion time of the sink, seconds
	SerialTime   float64   // Σ proc + Σ comm of everything that ran
	BusyTime     []float64 // per-server processing time
	BitsSent     float64   // bits that crossed the network
	MessagesSent int       // inter-server messages
	ExecutedOps  int       // operations that ran
	Completed    bool      // the sink executed (always true without faults)
	LostOps      int       // operations lost to unrecovered server failures
	LostMessages int       // messages lost after exhausting retries
}

// Result aggregates a Monte-Carlo simulation.
type Result struct {
	Runs           int
	Completed      int // runs whose sink executed (== Runs without faults)
	Makespan       stats.Summary
	SerialTime     stats.Summary
	MeanBusy       []float64 // per-server mean busy time
	MeanBits       float64
	MeanMessages   float64
	MeanExecutedOp float64
}

// Simulate executes the mapped workflow cfg.Runs times and aggregates the
// results. The mapping must be total and valid.
func Simulate(w *workflow.Workflow, n *network.Network, mp deploy.Mapping, cfg Config) (*Result, error) {
	if err := mp.Validate(w, n); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = DefaultRuns
	}
	r := stats.NewRNG(cfg.Seed)
	res := &Result{Runs: runs, MeanBusy: make([]float64, n.N())}
	root := cfg.Tracer.StartSpan("sim.simulate")
	root.SetAttr("workflow", w.Name)
	root.SetInt("runs", int64(runs))
	defer root.End()
	cfg.parent = root
	makespans := make([]float64, 0, runs)
	serials := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		rr := RunOnce(w, n, mp, r, cfg)
		if rr.Completed {
			res.Completed++
		}
		makespans = append(makespans, rr.Makespan)
		serials = append(serials, rr.SerialTime)
		for s, b := range rr.BusyTime {
			res.MeanBusy[s] += b
		}
		res.MeanBits += rr.BitsSent
		res.MeanMessages += float64(rr.MessagesSent)
		res.MeanExecutedOp += float64(rr.ExecutedOps)
	}
	for s := range res.MeanBusy {
		res.MeanBusy[s] /= float64(runs)
	}
	res.MeanBits /= float64(runs)
	res.MeanMessages /= float64(runs)
	res.MeanExecutedOp /= float64(runs)
	res.Makespan = stats.Summarize(makespans)
	res.SerialTime = stats.Summarize(serials)
	return res, nil
}

// event kinds for the simulation heap.
const (
	evOpDone  = iota // an operation finished processing on its server
	evArrival        // a message (or, at a source, the instance) arrived
)

type event struct {
	time float64
	kind int
	exec int // index of the execution the event belongs to
	node int // the operation that finished / receives the message
	edge int // evArrival: the delivering edge; -1 otherwise
	seq  int // FIFO tie-break
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// execution is one workflow instance in flight: when it arrives, which
// branches it takes, and how far the event loop has played it.
type execution struct {
	arrival float64
	ex      workflow.Execution
	need    []int  // message arrivals each node still waits for
	started []bool // nodes already started (or lost)
	server  []int  // server each started node ran on
}

// newExecution prepares one instance arriving at the given time with the
// sampled branches ex. need[u] is how many message arrivals node u
// requires before it can start. AND joins rendezvous on every executed
// incoming branch; OR joins fire on the first arrival; everything else
// waits for all of its (at most one, except XOR joins) executed in-edges
// — an XOR join has exactly one executed in-edge per run.
func newExecution(w *workflow.Workflow, ex workflow.Execution, arrival float64) execution {
	x := execution{
		arrival: arrival,
		ex:      ex,
		need:    make([]int, w.M()),
		started: make([]bool, w.M()),
		server:  make([]int, w.M()),
	}
	for u := range w.Nodes {
		if !ex.Nodes[u] {
			continue
		}
		executedIn := 0
		for _, ei := range w.In(u) {
			if ex.Edges[ei] {
				executedIn++
			}
		}
		if w.Nodes[u].Kind == workflow.OrJoin {
			x.need[u] = 1
		} else {
			x.need[u] = executedIn
		}
	}
	return x
}

// RunOnce executes the mapped workflow a single time, drawing XOR branches
// from r.
func RunOnce(w *workflow.Workflow, n *network.Network, mp deploy.Mapping, r *stats.RNG, cfg Config) RunResult {
	obsSimRuns.Inc()
	sp := cfg.parent.StartChild("sim.run")
	if sp == nil {
		// Direct RunOnce calls (no Simulate batch) still get a root span.
		sp = cfg.Tracer.StartSpan("sim.run")
	}
	execs := []execution{newExecution(w, w.SampleExecution(r), 0)}
	rr := RunResult{BusyTime: make([]float64, n.N())}
	execute(w, n, mp, cfg, execs, &rr, nil)
	if rr.LostOps > 0 {
		obsSimLostOps.Add(int64(rr.LostOps))
	}
	if rr.LostMessages > 0 {
		obsSimLostMsgs.Add(int64(rr.LostMessages))
	}
	sp.SetFloat("makespan_vs", rr.Makespan)
	sp.SetInt("executed_ops", int64(rr.ExecutedOps))
	sp.SetInt("messages", int64(rr.MessagesSent))
	sp.End()
	return rr
}

// execute is the simulator's one event loop. It seeds each execution's
// source with an arrival event and plays every execution on one heap
// over shared FIFO servers (and, with cfg.BusContention, one shared
// bus), adding what ran into rr. rr.Makespan ends as the last sink
// completion. finished, when set, is called at each sink completion,
// in completion order.
func execute(w *workflow.Workflow, n *network.Network, mp deploy.Mapping, cfg Config, execs []execution, rr *RunResult, finished func(i int, done float64)) {
	var (
		h        eventHeap
		seq      int
		busFree  float64
		busyTill = make([]float64, n.N())
	)
	push := func(t float64, kind, exec, node, edge int) {
		heap.Push(&h, event{time: t, kind: kind, exec: exec, node: node, edge: edge, seq: seq})
		seq++
	}
	for i := range execs {
		push(execs[i].arrival, evArrival, i, w.Source(), -1)
	}
	for h.Len() > 0 {
		e := heap.Pop(&h).(event)
		x := &execs[e.exec]
		now := e.time
		switch e.kind {
		case evOpDone:
			if e.node == w.Sink() {
				rr.Makespan = now
				rr.Completed = true
				if finished != nil {
					finished(e.exec, now)
				}
			}
			for _, ei := range w.Out(e.node) {
				if !x.ex.Edges[ei] {
					continue
				}
				edge := w.Edges[ei]
				from, to := x.server[e.node], mp[edge.To]
				if cfg.Injector != nil {
					to = cfg.Injector.Place(edge.To, now)
				}
				if from == to {
					push(now, evArrival, e.exec, edge.To, ei)
					continue
				}
				transfer := n.TransferTime(from, to, edge.SizeBits)
				if cfg.Injector != nil {
					eff, delivered := cfg.Injector.Transfer(ei, from, to, now, transfer)
					if !delivered {
						rr.LostMessages++
						continue
					}
					transfer = eff
				}
				depart := now
				if cfg.BusContention && n.Topology() == network.Bus {
					if busFree > depart {
						depart = busFree
					}
					busFree = depart + transfer
				}
				rr.SerialTime += transfer
				rr.BitsSent += edge.SizeBits
				rr.MessagesSent++
				obsSimMsgHist.Observe(transfer)
				obsSimMsgBits.Add(int64(edge.SizeBits))
				if cfg.onEvent != nil {
					cfg.onEvent(Event{Time: depart, Kind: EvSend, Node: edge.From, Edge: ei})
				}
				push(depart+transfer, evArrival, e.exec, edge.To, ei)
			}
		case evArrival:
			u := e.node
			if !x.ex.Nodes[u] || x.started[u] {
				continue
			}
			x.need[u]--
			if x.need[u] > 0 {
				continue
			}
			// Start u on its server, respecting FIFO occupancy. The
			// injector, when present, may re-place the operation, delay
			// its start or lose it.
			x.started[u] = true
			s, t := mp[u], now
			if cfg.Injector != nil {
				s = cfg.Injector.Place(u, t)
				delay, ok := cfg.Injector.OpStart(u, s, t)
				if !ok {
					rr.LostOps++
					continue
				}
				t += delay
			}
			x.server[u] = s
			proc := w.Nodes[u].Cycles / n.Servers[s].PowerHz
			if cfg.Injector != nil {
				proc *= cfg.Injector.ProcFactor(u, s, t)
			}
			start := t
			if !cfg.InfiniteServers && busyTill[s] > start {
				start = busyTill[s]
			}
			done := start + proc
			busyTill[s] = done
			rr.BusyTime[s] += proc
			rr.SerialTime += proc
			rr.ExecutedOps++
			obsSimOpsHist.Observe(proc)
			if cfg.onEvent != nil {
				cfg.onEvent(Event{Time: start, Kind: EvStart, Node: u, Edge: -1})
				cfg.onEvent(Event{Time: done, Kind: EvFinish, Node: u, Edge: -1})
			}
			push(done, evOpDone, e.exec, u, -1)
		}
	}
}

// ValidateAgainstModel compares the simulator's mean serial time with the
// analytic amortised execution time and returns their relative deviation;
// a small value certifies that the cost model and the simulator agree.
func ValidateAgainstModel(w *workflow.Workflow, n *network.Network, mp deploy.Mapping, analytic float64, cfg Config) (float64, error) {
	res, err := Simulate(w, n, mp, cfg)
	if err != nil {
		return math.Inf(1), err
	}
	return stats.RelDev(res.SerialTime.Mean, analytic), nil
}
