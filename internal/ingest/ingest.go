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
	obsDepth     = obs.Default().Gauge("ingest.queue_depth")
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

// Planner is the slice of *engine.Engine the pipeline needs. Narrowing
// to an interface keeps the pipeline testable against a deterministic
// fake while production wiring passes the real engine.
type Planner interface {
	Run(ctx context.Context, req engine.Request) (*engine.Result, error)
}

// Config tunes a Pipeline. The zero value is a working pipeline with
// the documented defaults.
type Config struct {
	// MaxQueue bounds the requests in flight: a request holds one slot
	// from Submit until its plan ends, so at most MaxQueue plans run at
	// once, and a Submit with every slot held sheds with ErrBacklog.
	// Default 256.
	MaxQueue int
}

// Stats is a point-in-time snapshot of one pipeline's counters.
type Stats struct {
	Submitted uint64 // requests that took a slot
	Shed      uint64 // requests rejected with ErrBacklog
	Coalesced uint64 // always 0: no request shares another's plan
	Batches   uint64 // plans started, one per submitted request
	Depth     int    // slots held now
}

// Pipeline is the planning path in front of one engine. Create with
// New, submit with Submit, and Close it when done.
type Pipeline struct {
	eng      Planner
	maxQueue int64

	ctx    context.Context // every plan also ends with it; Close cancels it
	cancel context.CancelFunc
	mu     sync.Mutex     // orders wg.Add against Close
	wg     sync.WaitGroup // one count per running plan

	held      atomic.Int64
	submitted atomic.Uint64
	shed      atomic.Uint64
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
	}
}

// Close cancels every running plan, whose requests fail with ErrClosed,
// and waits for the plans to end. Safe to call more than once.
func (p *Pipeline) Close() {
	p.mu.Lock()
	p.cancel() // under mu, so no plan starts after Wait begins
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats snapshots the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	submitted := p.submitted.Load()
	return Stats{
		Submitted: submitted,
		Shed:      p.shed.Load(),
		Batches:   submitted,
		Depth:     int(p.held.Load()),
	}
}

// Submit plans one request on the caller's goroutine and returns its
// result. With every slot held it sheds at once with ErrBacklog. The
// plan runs under ctx and ends with the pipeline: if ctx's deadline
// passes mid-plan, Submit returns the plan's best-so-far with
// engine.ErrDeadline; if ctx is cancelled, the plan stops and Submit
// returns ctx's error; if the pipeline closes, ErrClosed.
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
	defer func() {
		p.held.Add(-1)
		obsDepth.Add(-1)
	}()
	p.mu.Lock()
	if p.ctx.Err() != nil {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.wg.Add(1)
	p.mu.Unlock()
	defer p.wg.Done()
	p.submitted.Add(1)
	obsSubmitted.Inc()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(p.ctx, cancel)
	defer stop()
	res, err := p.eng.Run(runCtx, req)
	switch {
	case p.ctx.Err() != nil:
		return nil, ErrClosed
	case err != nil && errors.Is(ctx.Err(), context.Canceled):
		// The caller gave up: a best-so-far is not an answer it asked for.
		return nil, ctx.Err()
	}
	return res, err
}
