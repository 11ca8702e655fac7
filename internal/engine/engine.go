// Package engine is the concurrent portfolio planner: it fans a set of
// registry algorithms out over a bounded worker pool, evaluates every
// candidate mapping against the shared cost model, and returns the best
// mapping plus a per-algorithm leaderboard.
//
// The paper's heuristics each win on different workflow/network classes
// (the evaluation in §4 plots them side by side precisely because no
// single one dominates), so a production planner should race them and
// keep the winner rather than commit to one strategy. The engine makes
// that race cheap:
//
//   - a bounded worker pool (Options.Parallelism) runs the portfolio
//     concurrently, so wall-clock is the slowest algorithm, not the sum;
//   - the context is threaded through every search algorithm
//     (core.ContextAlgorithm), so a deadline returns the best mapping
//     found so far — with ErrDeadline — instead of hanging;
//   - an LRU cache keyed by a content hash of (workflow, network,
//     algorithm, seed) serves repeated requests without re-planning, and
//     hands out its plans read-only; a run whose algorithms all ignore
//     the seed keys under seed zero;
//   - metrics on the shared obs.Registry (see Metrics) expose plan
//     counts, cache traffic and per-algorithm latency histograms at
//     /metrics;
//   - an optional obs.Tracer (Options.Tracer) records an "engine.run"
//     span per portfolio with one "engine.plan" child per algorithm.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/lru"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/workflow"
)

// ErrDeadline reports that the context expired before the whole portfolio
// completed. Run still returns a usable *Result next to it — completed
// algorithms keep their plans and interrupted searches contribute their
// best-so-far — so callers should check the result before the error:
//
//	res, err := eng.Run(ctx, req)
//	if err != nil && !errors.Is(err, engine.ErrDeadline) { ... hard failure
//	if res.Best != nil { ... usable, possibly truncated
var ErrDeadline = errors.New("engine: deadline expired before the portfolio completed")

// DefaultCacheSize is the plan cache capacity when Options.CacheSize is
// zero.
const DefaultCacheSize = 512

// Options configures an Engine. The zero value is a fully working
// portfolio over the whole registry.
type Options struct {
	// Parallelism bounds the worker pool; zero means GOMAXPROCS.
	Parallelism int
	// CacheSize is the LRU plan-cache capacity; zero means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// Tracer, when set, records one span per portfolio run
	// ("engine.run") with a child span per algorithm ("engine.plan").
	// Nil leaves tracing off at zero cost.
	Tracer *obs.Tracer
}

// Engine plans deployments by racing an algorithm portfolio. Construct
// with New; an Engine is safe for concurrent use.
type Engine struct {
	algorithms  []string // the default portfolio: the whole registry
	parallelism int
	cache       *lru.Cache[cacheKey, Plan] // nil when caching is off
	tracer      *obs.Tracer
}

// New builds an engine.
func New(opts Options) *Engine {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		algorithms:  core.RegistryOrder(),
		parallelism: par,
		tracer:      opts.Tracer,
	}
	switch {
	case opts.CacheSize == 0:
		e.cache = lru.New[cacheKey, Plan](DefaultCacheSize)
	case opts.CacheSize > 0:
		e.cache = lru.New[cacheKey, Plan](opts.CacheSize)
	}
	return e
}

// MustNew is New under its older name, which the bench module still
// calls.
func MustNew(opts Options) *Engine { return New(opts) }

// Request is one planning problem. Algorithms overrides the engine's
// default portfolio for this request; Seed feeds every seeded algorithm
// and is part of the cache key unless no algorithm of the run reads it.
type Request struct {
	Workflow   *workflow.Workflow
	Network    *network.Network
	Algorithms []string
	Seed       uint64
}

// Plan is one algorithm's outcome in a portfolio run. Its Mapping and
// Loads may be shared with the plan cache and every run it is served
// to, so they are read-only.
type Plan struct {
	// Key is the registry key the algorithm was constructed from; Name is
	// its display name.
	Key  string
	Name string
	// Mapping is the computed deployment; nil when the algorithm failed
	// or was cancelled before producing any candidate.
	Mapping deploy.Mapping
	// ExecTime, TimePenalty, Combined and Loads are the cost model's
	// Evaluate of Mapping, and Makespan is its MakespanEstimate.
	ExecTime    float64
	TimePenalty float64
	Combined    float64
	Loads       []float64
	Makespan    float64
	// Elapsed is the planning wall-clock time (zero for cache hits).
	Elapsed time.Duration
	// FromCache marks a plan served from the LRU cache.
	FromCache bool
	// Truncated marks a search cut short by the context; Mapping, if
	// non-nil, is the best candidate found before the cut.
	Truncated bool
	// Err is set when the algorithm failed or does not apply to the
	// configuration (e.g. LineLine on a bus).
	Err string
}

// Result is a portfolio run's outcome, read-only like its plans.
type Result struct {
	// Best points at the winning plan: lowest combined cost among all
	// plans that produced a mapping, ties broken by portfolio (registry)
	// order. Nil when no algorithm produced a mapping.
	Best *Plan
	// Plans holds one entry per requested algorithm, in portfolio order.
	Plans []Plan
	// CacheHits and CacheMisses count this run's cache traffic.
	CacheHits   int
	CacheMisses int
	// Truncated reports that the context expired before every algorithm
	// completed.
	Truncated bool
}

// Leaderboard returns the plans ranked: mappings first by ascending
// combined cost (ties keep portfolio order), then failures in portfolio
// order.
func (r *Result) Leaderboard() []Plan {
	board := append([]Plan(nil), r.Plans...)
	sort.SliceStable(board, func(i, j int) bool {
		pi, pj := board[i], board[j]
		if (pi.Mapping != nil) != (pj.Mapping != nil) {
			return pi.Mapping != nil
		}
		if pi.Mapping == nil {
			return false
		}
		return pi.Combined < pj.Combined
	})
	return board
}

// Run races the portfolio over the worker pool and returns the best plan
// and the full per-algorithm outcome. When ctx expires mid-run the error
// is ErrDeadline and the result carries everything finished by then,
// including best-so-far mappings from the interrupted search algorithms;
// any other error means the request itself was invalid.
func (e *Engine) Run(ctx context.Context, req Request) (*Result, error) {
	if req.Workflow == nil || req.Network == nil {
		return nil, fmt.Errorf("engine: request needs both a workflow and a network")
	}
	names := req.Algorithms
	if len(names) == 0 {
		names = e.algorithms
	}
	req.Seed = canonicalSeed(names, req.Seed)
	algos := make([]core.Algorithm, len(names))
	for i, name := range names {
		a, err := core.NewByName(name, req.Seed)
		if err != nil {
			return nil, err
		}
		algos[i] = a
	}

	res := &Result{Plans: make([]Plan, len(names))}

	sp := e.tracer.StartSpan("engine.run")
	sp.SetAttr("workflow", req.Workflow.Name)
	sp.SetInt("algorithms", int64(len(names)))
	defer func() {
		sp.SetInt("cache_hits", int64(res.CacheHits))
		sp.End()
	}()

	// Serve cache hits inline; only misses go to the pool, and only they
	// need the cost model. Each plan's key is hashed once: a miss's Add
	// reuses it.
	var misses []int
	keys := make([]cacheKey, len(names))
	for i, name := range names {
		if e.cache != nil {
			keys[i] = planKey(req.Workflow, req.Network, name, req.Seed)
			if p, ok := e.cache.Get(keys[i]); ok {
				p.FromCache = true
				p.Elapsed = 0
				res.Plans[i] = p
				res.CacheHits++
				M.CacheHits.Add(1)
				continue
			}
			res.CacheMisses++
			M.CacheMisses.Add(1)
		}
		misses = append(misses, i)
	}
	var model *cost.Model
	if len(misses) > 0 {
		model = cost.NewModel(req.Workflow, req.Network)
	}

	sem := make(chan struct{}, e.parallelism)
	var wg sync.WaitGroup
	for _, i := range misses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// Never started: report the cancellation without a plan.
				M.PlansCancelled.Add(1)
				res.Plans[i] = Plan{
					Key:       names[i],
					Name:      algos[i].Name(),
					Truncated: true,
					Err:       "cancelled before start: " + ctx.Err().Error(),
				}
				return
			}
			defer func() { <-sem }()
			res.Plans[i] = e.runOne(ctx, names[i], algos[i], model, req, keys[i], sp)
		}(i)
	}
	wg.Wait()

	best := -1
	for i := range res.Plans {
		p := &res.Plans[i]
		if p.Truncated {
			res.Truncated = true
		}
		if p.Mapping == nil {
			continue
		}
		if best < 0 || p.Combined < res.Plans[best].Combined {
			best = i
		}
	}
	if best >= 0 {
		res.Best = &res.Plans[best]
	}
	if ctx.Err() != nil {
		res.Truncated = true
		return res, ErrDeadline
	}
	return res, nil
}

// runOne executes one algorithm under the context and classifies the
// outcome: success (cached under ck and counted as completed),
// truncated-with-best-so-far, truncated-empty, or algorithm error.
func (e *Engine) runOne(ctx context.Context, key string, algo core.Algorithm, model *cost.Model, req Request, ck cacheKey, parent *obs.Span) Plan {
	M.PlansStarted.Add(1)
	psp := parent.StartChild("engine.plan")
	psp.SetAttr("algo", key)
	start := time.Now()
	mp, err := core.DeployContext(ctx, algo, req.Workflow, req.Network)
	elapsed := time.Since(start)
	defer psp.End()

	p := Plan{Key: key, Name: algo.Name(), Elapsed: elapsed}
	truncated := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	switch {
	case mp != nil && (err == nil || truncated):
		r := model.Evaluate(mp)
		p.Mapping = mp
		p.ExecTime, p.TimePenalty, p.Combined, p.Loads = r.ExecTime, r.TimePenalty, r.Combined, r.Loads
		p.Makespan = model.MakespanEstimate(mp)
		p.Truncated = truncated
		if truncated {
			M.PlansCancelled.Add(1)
		} else {
			M.PlansCompleted.Add(1)
			M.Observe(key, elapsed)
			// Only completed plans are cached: a truncated one depends
			// on the deadline that cut it, not just on the problem.
			if e.cache != nil {
				e.cache.Add(ck, p, 1)
			}
		}
	case truncated:
		p.Truncated = true
		p.Err = "cancelled: " + err.Error()
		M.PlansCancelled.Add(1)
	default:
		p.Err = err.Error()
		M.PlansCompleted.Add(1)
		if e.cache != nil {
			// Negative caching: inapplicability is as deterministic as
			// success (same algorithm, same spec, same refusal), and
			// portfolio runs re-ask about inapplicable algorithms on
			// every repeat.
			e.cache.Add(ck, p, 1)
		}
	}
	if p.Mapping != nil {
		psp.SetFloat("combined", p.Combined)
	}
	if p.Err != "" {
		psp.SetAttr("err", p.Err)
	}
	return p
}
