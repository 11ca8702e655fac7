package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"wsdeploy/internal/stats"
)

// phases sizes one trial.
type phases struct {
	setups int           // daemon launches; setup_s is their median
	warmup time.Duration // open loop, checked but not measured
	open   time.Duration // measured open loop
	closed time.Duration // measured closed loop
}

// phasesFor sizes a trial whose open loop lasts seconds; the closed loop
// adds two fifths of that, 6 s to a 15 s open loop. A daemon starts in a
// few milliseconds with about a millisecond of jitter, so setup_s is the
// median of many launches.
func phasesFor(seconds float64) phases {
	open := time.Duration(seconds * float64(time.Second))
	return phases{setups: 15, warmup: 2 * time.Second, open: open, closed: open * 2 / 5}
}

// env is what every trial shares: the daemon binary, a scratch
// directory inside the checkout, and the client's connection budget.
type env struct {
	bin   string
	tmp   string
	conns int
}

// trial is one daemon's measured lifetime on one workload.
type trial struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []string           `json:"failed_checks,omitempty"`
	Failures  []string           `json:"failures,omitempty"`

	setupS   []float64
	lat      [][]float64 // open-loop latency of successful operations, ms, per stream
	late     []float64   // pacer wake lateness over the open loop, ms
	openOK   int
	openS    float64
	closedOK int
	closedS  float64
	cpuMs    float64
	// rssMB is the mean sampled resident set over the open loop. Not the
	// peak: it catches one garbage-collection cycle. Not over the closed
	// loop: the deployment ledger grows with every deploy, and the closed
	// loop deploys as many as the host's speed allows.
	rssMB float64
}

// tally folds one phase's samples into the trial's counts and returns
// how many succeeded. A wrong output is also a failed check; the
// latencies of successes are kept when keepLat is set.
func (t *trial) tally(res phaseResult, keepLat bool) (ok int) {
	for _, s := range res.samples {
		t.Attempted++
		var ce *checkError
		switch {
		case s.err == nil:
			ok++
			if keepLat {
				t.lat[s.stream] = append(t.lat[s.stream], float64(s.lat)/float64(time.Millisecond))
			}
		case errors.As(s.err, &ce):
			t.Failed++
			t.Checks = append(t.Checks, s.err.Error())
		default:
			t.Failed++
			if len(t.Failures) < 5 {
				t.Failures = append(t.Failures, s.err.Error())
			}
		}
	}
	return ok
}

// runTrial runs one workload against fresh daemons: setups launches
// (each to readyz plus the fixture), a warm-up, the measured open and
// closed loops, then kill -9 and a restart on the same data directory
// that must hand back everything acknowledged.
func runTrial(ctx context.Context, e *env, wl *workload, seed uint64, ph phases) (*trial, error) {
	in, err := newInputs(seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "daemon.log")
	cl, conns := newClient(e.conns)
	tr := cl.Transport.(*http.Transport)
	defer tr.CloseIdleConnections()

	t := &trial{Workload: wl.name, Seed: seed, lat: make([][]float64, len(wl.streams))}
	var (
		d    *daemon
		s    *session
		data string
	)
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	// Request seeds are unique over each daemon's lifetime.
	seedBase := seed << 32
	for k := 0; k < ph.setups; k++ {
		if d != nil {
			d.kill()
			d = nil
			tr.CloseIdleConnections()
		}
		data = filepath.Join(dir, fmt.Sprintf("data-%d", k))
		start := time.Now()
		if d, err = startDaemon(e.bin, data, logPath); err != nil {
			return nil, err
		}
		if err := d.waitReady(ctx, cl); err != nil {
			return nil, err
		}
		s = newSession(in, d.base, cl, seedBase)
		if err := wl.loadFixture(ctx, s); err != nil {
			return nil, fmt.Errorf("loading the %s fixture: %w", wl.name, err)
		}
		t.setupS = append(t.setupS, time.Since(start).Seconds())
	}

	do := func(ctx context.Context, stream, seq int) error { return wl.streams[stream].run(ctx, s, seq) }
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	t.tally(runOpen(ctx, schedule(rng, wl.rates(), ph.warmup), e.conns, do), false)

	const hitsName, missesName = "engine_cache_hits", "engine_cache_misses"
	before, err := scrape(ctx, cl, d.base, hitsName, missesName)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	stopPacer := pacer(ctx, seed)
	stopRSS := d.sampleRSS()
	open := runOpen(ctx, schedule(rng, wl.rates(), ph.open), e.conns, do)
	t.late = stopPacer()
	t.rssMB = mean(stopRSS())
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, cl, d.base, hitsName, missesName)
	if err != nil {
		return nil, err
	}
	t.openOK, t.openS = t.tally(open, true), open.elapsed.Seconds()
	t.cpuMs = float64(cpu1-cpu0) / float64(time.Millisecond)
	if wl.hits != nil {
		if err := wl.hits(after[hitsName]-before[hitsName], after[missesName]-before[missesName]); err != nil {
			t.Checks = append(t.Checks, err.Error())
		}
	}

	closed := runClosed(ctx, e.conns, ph.closed, wl.rates(), do)
	t.closedOK, t.closedS = t.tally(closed, false), closed.elapsed.Seconds()

	d.kill()
	d = nil
	tr.CloseIdleConnections()
	if d, err = startDaemon(e.bin, data, logPath); err != nil {
		return nil, err
	}
	if err := d.waitReady(ctx, cl); err != nil {
		return nil, err
	}
	s.base = d.base
	if err := s.verifyDurable(ctx); err != nil {
		var ce *checkError
		if !errors.As(err, &ce) {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		t.Checks = append(t.Checks, err.Error())
	}
	if peak := conns.peakOpen(); peak > e.conns {
		t.Checks = append(t.Checks, fmt.Sprintf("client held %d connections, budget %d", peak, e.conns))
	}
	t.Metrics = t.metrics()
	return t, nil
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics every trial reports, in print order.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"secondary_p95_ms", "ms"},
	{"ok_rps", "ops/s"},
	{"peak_rps", "ops/s"},
	{"error_ratio", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MiB"},
}

// latencyQuantiles maps the latency metrics to (stream, quantile).
var latencyQuantiles = map[string]struct {
	stream int
	q      float64
}{
	"p50_ms":           {0, 0.50},
	"p95_ms":           {0, 0.95},
	"secondary_p95_ms": {1, 0.95},
}

// metrics computes the trial's own value of every end-to-end metric.
// Latency percentiles here are per-trial estimates without the sample
// guard; summarize pools samples across trials and applies it.
func (t *trial) metrics() map[string]float64 {
	m := map[string]float64{
		"setup_s":       median(t.setupS),
		"ok_rps":        float64(t.openOK) / t.openS,
		"peak_rps":      float64(t.closedOK) / t.closedS,
		"error_ratio":   float64(t.Failed) / float64(max(t.Attempted, 1)),
		"cpu_ms_per_op": t.cpuMs / float64(max(t.openOK, 1)),
		"rss_mb":        t.rssMB,
	}
	for name, lq := range latencyQuantiles {
		if lq.stream < len(t.lat) {
			m[name] = quantile(t.lat[lq.stream], lq.q)
		}
	}
	return m
}

// summary is one metric over a set of trials.
type summary struct {
	Value float64 `json:"value"` // median over trials; latency: pooled percentile
	Min   float64 `json:"min"`   // spread of the per-trial values
	Max   float64 `json:"max"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples,omitempty"` // pooled latency samples
}

// summarize reports every end-to-end metric over trials: the median of
// the per-trial values with their min–max, except latency percentiles,
// which pool every trial's samples. A percentile with fewer than
// minBeyond samples beyond it is left out and noted.
func summarize(trials []*trial) (map[string]summary, []string) {
	out := map[string]summary{}
	var notes []string
	for _, def := range e2eDefs {
		var per []float64
		for _, t := range trials {
			if v, ok := t.Metrics[def.name]; ok && !math.IsNaN(v) {
				per = append(per, v)
			}
		}
		if len(per) == 0 {
			continue
		}
		lo, hi := spread(per)
		sm := summary{Value: median(per), Min: lo, Max: hi, Unit: def.unit}
		if lq, ok := latencyQuantiles[def.name]; ok {
			var pooled []float64
			for _, t := range trials {
				pooled = append(pooled, t.lat[lq.stream]...)
			}
			v, err := percentile(pooled, lq.q)
			if err != nil {
				notes = append(notes, fmt.Sprintf("%s omitted: %v", def.name, err))
				continue
			}
			sm.Value, sm.N = v, len(pooled)
		}
		out[def.name] = sm
	}
	return out, notes
}

// genLateP99 is the generator's p99 wake lateness over trials, in ms, or
// NaN when too few sleeps were observed to support it.
func genLateP99(trials []*trial) float64 {
	var late []float64
	for _, t := range trials {
		late = append(late, t.late...)
	}
	v, err := percentile(late, 0.99)
	if err != nil {
		return math.NaN()
	}
	return v
}
