package ingest

import (
	"context"
	"errors"
	"fmt"
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
	obsDepth     = obs.Default().Gauge("ingest.queue_depth")
	obsBatchHist = obs.Default().Histogram("ingest.batch_size")
)

// ErrBacklog reports that every slot of the pipeline is held and the
// request was shed without planning. The HTTP layer answers 503 with a
// Retry-After hint; programmatic callers should back off and retry.
var ErrBacklog = errors.New("ingest: pipeline full, request shed")

// ErrClosed reports a Submit against a closed pipeline, or a plan that
// Close cancelled.
var ErrClosed = errors.New("ingest: pipeline closed")

// RetryAfter is the backoff hint callers should attach to ErrBacklog
// rejections.
const RetryAfter = time.Second

// Planner is the slice of *engine.Engine the pipeline needs: plan a
// request, canonicalize one, and key it for coalescing. Narrowing to an
// interface keeps the pipeline testable against a deterministic fake
// while production wiring passes the real engine.
type Planner interface {
	Run(ctx context.Context, req engine.Request) (*engine.Result, error)
	Canonicalize(req engine.Request) engine.Request
	RequestKey(req engine.Request) string
}

// Config tunes a Pipeline. The zero value is a working pipeline with
// the documented defaults.
type Config struct {
	// MaxQueue bounds the requests in flight: a request holds one slot
	// from Submit until the plan serving it ends, so at most MaxQueue
	// plans run at once, and a Submit with every slot held sheds with
	// ErrBacklog. Default 256.
	MaxQueue int
}

// Stats is a point-in-time snapshot of one pipeline's counters.
type Stats struct {
	Submitted uint64 // requests that took a slot
	Shed      uint64 // requests rejected with ErrBacklog
	Coalesced uint64 // requests that joined another request's running plan
	Batches   uint64 // plans started
	Depth     int    // slots held now
}

// flight is one running plan and the outcome it delivers to every
// request it serves.
type flight struct {
	key     string        // RequestKey of a plan others may join; "" for a deadline plan
	waiters int           // requests served, each holding a slot; guarded by Pipeline.mu
	done    chan struct{} // closed once res and err are set
	res     *engine.Result
	err     error
}

// Pipeline is the deploy path in front of one engine. Create with New,
// submit with Submit, and Close it when done.
type Pipeline struct {
	eng      Planner
	maxQueue int64

	ctx    context.Context // every plan runs under it; Close cancels it
	cancel context.CancelFunc
	wg     sync.WaitGroup // one count per running plan

	mu      sync.Mutex
	running map[string]*flight // plans others may join, by RequestKey

	held      atomic.Int64
	submitted atomic.Uint64
	shed      atomic.Uint64
	coalesced atomic.Uint64
	batches   atomic.Uint64
}

// New builds a pipeline over the planner.
func New(eng Planner, cfg Config) *Pipeline {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Pipeline{
		eng:      eng,
		maxQueue: int64(cfg.MaxQueue),
		ctx:      ctx,
		cancel:   cancel,
		running:  make(map[string]*flight),
	}
}

// Close cancels every running plan, fails its waiters with ErrClosed
// and waits for the plan goroutines to exit. Safe to call more than
// once.
func (p *Pipeline) Close() {
	p.mu.Lock()
	p.cancel() // under mu, so no plan starts after Wait begins
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats snapshots the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Submitted: p.submitted.Load(),
		Shed:      p.shed.Load(),
		Coalesced: p.coalesced.Load(),
		Batches:   p.batches.Load(),
		Depth:     int(p.held.Load()),
	}
}

// Submit plans one request and blocks until its plan delivers, the
// caller's context ends, or the pipeline closes. With every slot held
// it sheds at once with ErrBacklog. A request without a deadline joins
// the running plan with the same canonical key, or starts one; joined
// requests share the plan's *Result, which callers must treat as
// read-only. A request with a deadline plans alone under exactly that
// deadline; if it passes mid-plan, Submit returns the plan's
// best-so-far with engine.ErrDeadline.
func (p *Pipeline) Submit(ctx context.Context, req engine.Request) (*engine.Result, error) {
	if req.Workflow == nil || req.Network == nil {
		return nil, fmt.Errorf("engine: request needs both a workflow and a network")
	}
	if p.held.Add(1) > p.maxQueue {
		p.held.Add(-1)
		p.shed.Add(1)
		obsShed.Inc()
		return nil, ErrBacklog
	}
	obsDepth.Add(1)
	f := p.join(ctx, p.eng.Canonicalize(req))
	if f == nil {
		p.release(1)
		return nil, ErrClosed
	}
	p.submitted.Add(1)
	obsSubmitted.Inc()
	select {
	case <-f.done:
	case <-ctx.Done():
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The plan runs on for its other waiters and still warms the
			// engine's cache; this caller stops waiting.
			return nil, ctx.Err()
		}
		// The plan runs under this same deadline, so it is ending too
		// and delivers its best-so-far.
		<-f.done
	}
	return f.res, f.err
}

// join adds the canonical request to the running plan with its key, or
// starts a plan for it; nil means the pipeline is closed. A request
// with a deadline always starts a plan of its own.
func (p *Pipeline) join(ctx context.Context, req engine.Request) *flight {
	deadline, bounded := ctx.Deadline()
	var key string
	if !bounded {
		key = p.eng.RequestKey(req)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ctx.Err() != nil {
		return nil
	}
	if f := p.running[key]; f != nil {
		f.waiters++
		p.coalesced.Add(1)
		obsCoalesced.Inc()
		return f
	}
	f := &flight{key: key, waiters: 1, done: make(chan struct{})}
	if !bounded {
		p.running[key] = f
	}
	p.batches.Add(1)
	obsBatches.Inc()
	p.wg.Add(1)
	go p.plan(f, req, deadline)
	return f
}

// plan runs one flight under the pipeline's context, bounded by the
// deadline when it is set, then frees its waiters' slots and delivers.
func (p *Pipeline) plan(f *flight, req engine.Request, deadline time.Time) {
	defer p.wg.Done()
	ctx := p.ctx
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(p.ctx, deadline)
		defer cancel()
	}
	res, err := p.eng.Run(ctx, req)
	if p.ctx.Err() != nil {
		res, err = nil, ErrClosed
	}
	p.mu.Lock()
	delete(p.running, f.key)
	waiters := f.waiters
	p.mu.Unlock()
	// Free the slots first, so a waiter that submits again on delivery
	// finds them.
	p.release(waiters)
	obsBatchHist.Observe(float64(waiters))
	f.res, f.err = res, err
	close(f.done)
}

// release frees n slots.
func (p *Pipeline) release(n int) {
	p.held.Add(int64(-n))
	obsDepth.Add(float64(-n))
}
