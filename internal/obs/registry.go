package obs

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a concurrency-safe, get-or-create collection of named
// counters, gauges and histograms with one exposition path: the
// Prometheus-style text handler (see MetricsHandler). Metric names are
// dot-separated ("fabric.send_attempt_seconds"); exposition sanitizes
// them to Prometheus conventions.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// defaultRegistry is the process-wide registry.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Callers on hot paths should resolve once and keep the pointer.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// readRuntime copies the Go runtime's heap and GC series into r: the
// heap the last GC found live, the heap goal the GC paces to, and the
// GC cycles completed. MetricsHandler calls it on every scrape, so
// nothing samples them in between.
func (r *Registry) readRuntime() {
	s := [...]metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s[:])
	r.Gauge("go.heap_live_bytes").Set(float64(s[0].Value.Uint64()))
	r.Gauge("go.heap_goal_bytes").Set(float64(s[1].Value.Uint64()))
	r.Counter("go.gc_cycles").v.Store(int64(s[2].Value.Uint64()))
}

// promName sanitizes a dotted metric name to Prometheus conventions.
func promName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	if len(b) > 0 && b[0] >= '0' && b[0] <= '9' {
		return "_" + string(b)
	}
	return string(b)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format: counters and gauges as single samples, histograms
// as summaries (quantile samples plus _sum, _count and _max). Output is
// sorted by name so scrapes are diff-friendly.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	type entry struct {
		name string
		kind int // 0 counter, 1 gauge, 2 histogram
	}
	entries := make([]entry, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name := range r.counters {
		entries = append(entries, entry{name, 0})
	}
	for name := range r.gauges {
		entries = append(entries, entry{name, 1})
	}
	for name := range r.hists {
		entries = append(entries, entry{name, 2})
	}
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		pn := promName(e.name)
		switch e.kind {
		case 0:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, counters[e.name].Value())
		case 1:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", pn, pn, gauges[e.name].Value())
		case 2:
			s := hists[e.name].Snapshot()
			fmt.Fprintf(w, "# TYPE %s summary\n", pn)
			fmt.Fprintf(w, "%s{quantile=\"0.5\"} %g\n", pn, s.P50)
			fmt.Fprintf(w, "%s{quantile=\"0.9\"} %g\n", pn, s.P90)
			fmt.Fprintf(w, "%s{quantile=\"0.99\"} %g\n", pn, s.P99)
			fmt.Fprintf(w, "%s_sum %g\n", pn, s.Sum)
			fmt.Fprintf(w, "%s_count %d\n", pn, s.Count)
			fmt.Fprintf(w, "%s_max %g\n", pn, s.Max)
		}
	}
}
