package engine

import (
	"time"

	"wsdeploy/internal/obs"
)

// Metrics instruments the engine through the shared obs.Registry, so
// engine counters ride the same exposition path as the fabric's and the
// chaos runtime's: the Prometheus-style /metrics endpoint. All engines
// in a process share the single package-level instance M:
//
//	engine.plans_started    plans dispatched to a worker
//	engine.plans_completed  plans that ran to completion (success or
//	                        algorithm error)
//	engine.plans_cancelled  plans cut short by context cancellation or a
//	                        deadline (including ones never started)
//	engine.cache_hits       plans served from the LRU plan cache
//	engine.cache_misses     plans that had to be computed
//
// Per-algorithm latency lives in obs histograms named
// "engine.plan_latency.<algo>" (seconds), with p50/p90/p99 summaries on
// /metrics.
type Metrics struct {
	PlansStarted   *obs.Counter
	PlansCompleted *obs.Counter
	PlansCancelled *obs.Counter
	CacheHits      *obs.Counter
	CacheMisses    *obs.Counter
}

// latencyPrefix namespaces the per-algorithm planning-latency
// histograms in the shared registry.
const latencyPrefix = "engine.plan_latency."

// M is the process-wide engine metrics instance.
var M = newMetrics()

func newMetrics() *Metrics {
	reg := obs.Default()
	return &Metrics{
		PlansStarted:   reg.Counter("engine.plans_started"),
		PlansCompleted: reg.Counter("engine.plans_completed"),
		PlansCancelled: reg.Counter("engine.plans_cancelled"),
		CacheHits:      reg.Counter("engine.cache_hits"),
		CacheMisses:    reg.Counter("engine.cache_misses"),
	}
}

// Observe records one completed plan's latency under the algorithm's
// registry key.
func (m *Metrics) Observe(algorithm string, d time.Duration) {
	obs.Default().Histogram(latencyPrefix + algorithm).ObserveDuration(d)
}
