package ingest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wsdeploy/internal/engine"
	"wsdeploy/internal/obs"
)

// Process-wide ingest metrics on the shared obs registry: every
// pipeline feeds the same series, so /metrics shows ingest pressure
// next to the tenant admission counters.
var (
	obsSubmitted = obs.Default().Counter("ingest.submitted")
	obsShed      = obs.Default().Counter("ingest.shed_backlog")
	obsCoalesced = obs.Default().Counter("ingest.coalesced")
	obsBatches   = obs.Default().Counter("ingest.batches")
	obsGroups    = obs.Default().Counter("ingest.plan_groups")
	obsDepth     = obs.Default().Gauge("ingest.queue_depth")
	obsBatchHist = obs.Default().Histogram("ingest.batch_size")
	obsWaitHist  = obs.Default().Histogram("ingest.wait_seconds")
)

// ErrBacklog reports that the pipeline's bounded queue is full and the
// request was shed without planning. The HTTP layer answers 503 with a
// Retry-After hint; programmatic callers should back off and retry.
var ErrBacklog = errors.New("ingest: queue full, request shed")

// ErrClosed reports a Submit against a closed pipeline.
var ErrClosed = errors.New("ingest: pipeline closed")

// RetryAfter is the backoff hint callers should attach to ErrBacklog
// rejections.
const RetryAfter = time.Second

// Planner is the slice of *engine.Engine the pipeline needs: plan a
// request, canonicalize one, and key it for coalescing. Narrowing to an
// interface keeps the batching logic testable against a deterministic
// fake while production wiring passes the real engine.
type Planner interface {
	Run(ctx context.Context, req engine.Request) (*engine.Result, error)
	Canonicalize(req engine.Request) engine.Request
	RequestKey(req engine.Request) string
}

// maxBatch is the most requests one flush carries.
const maxBatch = 64

// Config tunes a Pipeline. The zero value is a working pipeline with
// the documented defaults.
type Config struct {
	// MaxQueue bounds the queue in front of the dispatcher; a Submit
	// against a full queue sheds with ErrBacklog. Default 256.
	MaxQueue int
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	return c
}

// Stats is a point-in-time snapshot of one pipeline's counters.
type Stats struct {
	Submitted uint64 // requests accepted onto the queue
	Shed      uint64 // requests rejected with ErrBacklog
	Coalesced uint64 // requests served by another request's plan
	Batches   uint64 // flushes executed
	Groups    uint64 // unique plan groups executed
	Depth     int    // current queue depth
}

// outcome is one group's delivered result.
type outcome struct {
	res *engine.Result
	err error
}

// pending is one enqueued request with its waiter.
type pending struct {
	ctx context.Context
	req engine.Request // canonicalized
	key string
	enq time.Time
	out chan outcome // buffered 1: delivery never blocks the dispatcher
	// planning is set once the request's group starts planning: from
	// then on a deadline that passes still delivers the group's outcome.
	planning atomic.Bool
}

// Pipeline is the batched deploy path in front of one engine. Create
// with New, submit with Submit, and Close it when done (Close stops the
// dispatcher and fails queued waiters with ErrClosed).
type Pipeline struct {
	eng Planner

	queue  chan *pending
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	submitted atomic.Uint64
	shed      atomic.Uint64
	coalesced atomic.Uint64
	batches   atomic.Uint64
	groups    atomic.Uint64
	depth     atomic.Int64
}

// New builds a pipeline over the planner and starts its dispatcher.
func New(eng Planner, cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pipeline{
		eng:    eng,
		queue:  make(chan *pending, cfg.MaxQueue),
		ctx:    ctx,
		cancel: cancel,
	}
	p.wg.Add(1)
	go p.dispatch()
	return p
}

// Close stops the dispatcher, fails queued waiters with ErrClosed and
// waits for the in-flight batch to finish. Safe to call more than once.
func (p *Pipeline) Close() {
	p.cancel()
	p.wg.Wait()
}

// Stats snapshots the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Submitted: p.submitted.Load(),
		Shed:      p.shed.Load(),
		Coalesced: p.coalesced.Load(),
		Batches:   p.batches.Load(),
		Groups:    p.groups.Load(),
		Depth:     int(p.depth.Load()),
	}
}

// Submit enqueues one planning request and blocks until its batch
// delivers a result, the caller's context ends, or the pipeline closes.
// A full queue sheds immediately with ErrBacklog. The result contract
// matches engine.Run: coalesced requests share the winning *Result of
// their group, which callers must treat as read-only. A request with a
// deadline plans alone under exactly that deadline; if it passes while
// the request plans, Submit returns the plan's best-so-far with
// engine.ErrDeadline, and if it passes while the request is queued,
// Submit returns context.DeadlineExceeded unplanned.
func (p *Pipeline) Submit(ctx context.Context, req engine.Request) (*engine.Result, error) {
	if req.Workflow == nil || req.Network == nil {
		return nil, fmt.Errorf("engine: request needs both a workflow and a network")
	}
	if p.ctx.Err() != nil {
		return nil, ErrClosed
	}
	creq := p.eng.Canonicalize(req)
	pn := &pending{
		ctx: ctx,
		req: creq,
		key: p.eng.RequestKey(creq),
		enq: time.Now(),
		out: make(chan outcome, 1),
	}
	select {
	case p.queue <- pn:
		p.submitted.Add(1)
		obsSubmitted.Inc()
		p.depth.Add(1)
		obsDepth.Add(1)
	default:
		p.shed.Add(1)
		obsShed.Inc()
		return nil, ErrBacklog
	}
	select {
	case out := <-pn.out:
		return out.res, out.err
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) && pn.planning.Load() {
			// The plan runs under this same deadline, so it is ending
			// too and delivers its best-so-far.
			select {
			case out := <-pn.out:
				return out.res, out.err
			case <-p.ctx.Done():
				return nil, ErrClosed
			}
		}
		// The batch keeps planning (its result still warms the cache for
		// the group's other waiters); this caller stops waiting.
		return nil, ctx.Err()
	case <-p.ctx.Done():
		return nil, ErrClosed
	}
}

// dequeued accounts one pending leaving the queue.
func (p *Pipeline) dequeued(pn *pending) {
	p.depth.Add(-1)
	obsDepth.Add(-1)
	obsWaitHist.ObserveDuration(time.Since(pn.enq))
}

// dispatch is the batching loop: block for the first request, add
// whatever else is already queued (up to maxBatch), execute the batch,
// and repeat. Execution is synchronous on purpose — while a batch
// plans, new arrivals accumulate in the queue, so batch size tracks
// load without adding latency when the pipeline is idle.
func (p *Pipeline) dispatch() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			p.drainClosed()
			return
		case first := <-p.queue:
			p.dequeued(first)
			batch := p.fill([]*pending{first})
			p.execute(batch)
		}
	}
}

// fill drains the queue into the batch without waiting, until the
// queue is empty or the batch holds maxBatch requests.
func (p *Pipeline) fill(batch []*pending) []*pending {
	for len(batch) < maxBatch {
		select {
		case pn := <-p.queue:
			p.dequeued(pn)
			batch = append(batch, pn)
		default:
			return batch
		}
	}
	return batch
}

// execute coalesces one batch by canonical key and plans each unique
// group once, at most GOMAXPROCS groups at a time. Every waiter of a
// group receives the group's outcome. A request with a deadline is a
// group of its own.
func (p *Pipeline) execute(batch []*pending) {
	var groups [][]*pending
	index := make(map[string]int, len(batch))
	live := 0
	for _, pn := range batch {
		if err := pn.ctx.Err(); err != nil {
			// The waiter is already gone (client timeout while queued);
			// don't spend planning work on it.
			pn.out <- outcome{err: err}
			continue
		}
		live++
		if _, bounded := pn.ctx.Deadline(); !bounded {
			if i, ok := index[pn.key]; ok {
				groups[i] = append(groups[i], pn)
				continue
			}
			index[pn.key] = len(groups)
		}
		groups = append(groups, []*pending{pn})
	}
	if live == 0 {
		return
	}
	p.batches.Add(1)
	obsBatches.Inc()
	p.groups.Add(uint64(len(groups)))
	obsGroups.Add(int64(len(groups)))
	p.coalesced.Add(uint64(live - len(groups)))
	obsCoalesced.Add(int64(live - len(groups)))
	obsBatchHist.Observe(float64(live))

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, waiters := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ctx, cancel := p.groupCtx(waiters)
			defer cancel()
			for _, pn := range waiters {
				pn.planning.Store(true)
			}
			res, err := p.eng.Run(ctx, waiters[0].req)
			for _, pn := range waiters {
				pn.out <- outcome{res: res, err: err}
			}
		}()
	}
	wg.Wait()
}

// groupCtx derives one group's planning context from the pipeline root.
// A group with a deadline is one request (see execute), planned under
// exactly its deadline; any other group is unbounded, like a direct
// engine run.
func (p *Pipeline) groupCtx(waiters []*pending) (context.Context, context.CancelFunc) {
	if d, ok := waiters[0].ctx.Deadline(); ok {
		return context.WithDeadline(p.ctx, d)
	}
	return context.WithCancel(p.ctx)
}

// drainClosed empties the queue after Close so every queued waiter
// fails promptly with ErrClosed (Submit's own select on the pipeline
// context is the backstop for any racing enqueue).
func (p *Pipeline) drainClosed() {
	for {
		select {
		case pn := <-p.queue:
			p.dequeued(pn)
			pn.out <- outcome{err: ErrClosed}
		default:
			return
		}
	}
}
