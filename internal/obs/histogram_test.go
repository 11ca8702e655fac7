package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100) // 0.01 .. 1.00
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Errorf("count = %d, want 100", s.Count)
	}
	if want := 50.5; math.Abs(s.Sum-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
	if s.Max != 1.0 {
		t.Errorf("max = %g, want 1", s.Max)
	}
	// Log buckets are coarse; quantiles must land within a factor of two
	// of the true value and never exceed the observed max.
	checks := []struct {
		name      string
		got, true float64
	}{{"p50", s.P50, 0.50}, {"p90", s.P90, 0.90}, {"p99", s.P99, 0.99}}
	for _, c := range checks {
		if c.got < c.true/2 || c.got > s.Max {
			t.Errorf("%s = %g, want within [%g, %g]", c.name, c.got, c.true/2, s.Max)
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.NaN())
	h.Observe(1e300) // beyond the top bucket
	h.Observe(1e-300)
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	s := h.Snapshot()
	if s.Max != 1e300 {
		t.Errorf("max = %g", s.Max)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(1500 * time.Millisecond)
	s := h.Snapshot()
	if math.Abs(s.Sum-1.5) > 1e-9 {
		t.Errorf("sum = %g, want 1.5", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) * 1e-6)
				if i%100 == 0 {
					_ = h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	// Exact sum of 0..n-1 in micro-units survives concurrent CAS adds.
	n := float64(workers * per)
	if want := n * (n - 1) / 2 * 1e-6; math.Abs(s.Sum-want) > 1e-6 {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("counter identity not stable")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("gauge identity not stable")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("histogram identity not stable")
	}
	r.Counter("a").Add(3)
	r.Gauge("g").Set(2.5)
	r.Histogram("h").Observe(1)

	if v := r.Counter("a").Value(); v != 3 {
		t.Errorf("counter a = %v", v)
	}
	if v := r.Gauge("g").Value(); v != 2.5 {
		t.Errorf("gauge g = %v", v)
	}
	if hs := r.Histogram("h").Snapshot(); hs.Count != 1 {
		t.Errorf("histogram h = %+v", hs)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	names := []string{"x.one", "x.two", "x.three", "x.four"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				name := names[i%len(names)]
				r.Counter(name).Inc()
				r.Histogram(name).Observe(float64(i))
				r.Gauge(name).Set(float64(i))
				if i%50 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, name := range names {
		total += r.Counter(name).Value()
	}
	if total != 8*500 {
		t.Fatalf("counters total %d, want %d", total, 8*500)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.plans_started").Add(7)
	r.Gauge("manager.down_servers").Set(2)
	r.Histogram("fabric.send_attempt_seconds").Observe(0.25)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE engine_plans_started counter\nengine_plans_started 7\n",
		"# TYPE manager_down_servers gauge\nmanager_down_servers 2\n",
		"# TYPE fabric_send_attempt_seconds summary\n",
		`fabric_send_attempt_seconds{quantile="0.5"}`,
		"fabric_send_attempt_seconds_sum 0.25\n",
		"fabric_send_attempt_seconds_count 1\n",
		"fabric_send_attempt_seconds_max 0.25\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Sorted by name: engine before fabric before manager.
	if e, f := strings.Index(out, "engine_"), strings.Index(out, "fabric_"); e > f {
		t.Error("output not sorted")
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"engine.plans_started": "engine_plans_started",
		"a-b c":                "a_b_c",
		"9lives":               "_9lives",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// BenchmarkObsHistogramObserve prices the always-on histogram path.
func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
}
