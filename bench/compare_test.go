package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := bound{share: 0.10, lowerBetter: true}
	higher := bound{share: 0.10}
	base := summary{Value: 100, Min: 98, Max: 102}
	for _, c := range []struct {
		name string
		head summary
		b    bound
		want string
	}{
		{"latency down 20%", summary{Value: 80, Min: 79, Max: 81}, lower, verdictBetter},
		{"latency up 5%", summary{Value: 105, Min: 103, Max: 107}, lower, verdictWithin},
		{"latency up 20%", summary{Value: 120, Min: 118, Max: 122}, lower, verdictWorse},
		{"throughput down 20%", summary{Value: 80, Min: 79, Max: 81}, higher, verdictWorse},
		{"throughput up 20%", summary{Value: 120, Min: 118, Max: 122}, higher, verdictBetter},
		{"spread wider than bound", summary{Value: 110, Min: 90, Max: 130}, lower, verdictUnresolved},
		// Disjoint ranges are resolved however wide they are.
		{"wide but disjoint", summary{Value: 150, Min: 120, Max: 190}, lower, verdictWorse},
	} {
		if got := judge(base, c.head, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	abs := bound{floor: 0.001, lowerBetter: true}
	if got := judge(summary{}, summary{Value: 0.01, Min: 0.01, Max: 0.01}, abs); got != verdictWorse {
		t.Errorf("error ratio 0 -> 0.01: %s, want worse", got)
	}
	if got := judge(summary{}, summary{}, abs); got != verdictWithin {
		t.Errorf("error ratio 0 -> 0: %s, want within bound", got)
	}
}

// TestSetupFloor: setup_s is judged against max(share of base, 0.01 s),
// in seconds, for both the change and the spread widths.
func TestSetupFloor(t *testing.T) {
	bf := &benchFile{EndToEnd: []benchMetric{{Name: "setup_s", Better: "lower", Bound: 0.10}}}
	b, ok := boundFor(bf, "setup_s")
	if !ok {
		t.Fatal("setup_s has no bound")
	}
	base := summary{Value: 0.005, Min: 0.0045, Max: 0.0055}
	for _, c := range []struct {
		name string
		head summary
		want string
	}{
		// +60% of a 5 ms start-up, 3 ms: within the 10 ms floor.
		{"3 ms slower", summary{Value: 0.008, Min: 0.007, Max: 0.009}, verdictWithin},
		// A 4 ms spread is 80% of the base, but less than the floor.
		{"wide spread under the floor", summary{Value: 0.006, Min: 0.004, Max: 0.008}, verdictWithin},
		{"15 ms slower", summary{Value: 0.020, Min: 0.019, Max: 0.021}, verdictWorse},
		{"spread wider than the floor", summary{Value: 0.010, Min: 0.005, Max: 0.020}, verdictUnresolved},
	} {
		if got := judge(base, c.head, b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// Well above the floor, the share decides: 2 s -> 2.3 s is +15%.
	slow := summary{Value: 2, Min: 2, Max: 2}
	if got := judge(slow, summary{Value: 2.3, Min: 2.3, Max: 2.3}, b); got != verdictWorse {
		t.Errorf("2 s -> 2.3 s: %s, want worse", got)
	}
}

func TestCompareCountsWorse(t *testing.T) {
	bf := &benchFile{EndToEnd: []benchMetric{
		{Name: "p50_ms", Better: "lower", Bound: 0.1},
		{Name: "ok_rps", Better: "higher", Bound: 0.02},
	}}
	file := func(p50, rps float64) *resultsFile {
		return &resultsFile{Workloads: map[string]*workloadResult{"w": {Metrics: map[string]summary{
			"p50_ms": {Value: p50, Min: p50, Max: p50, Unit: "ms"},
			"ok_rps": {Value: rps, Min: rps, Max: rps, Unit: "ops/s"},
		}}}}
	}
	var out bytes.Buffer
	if worse := compare(&out, bf, file(10, 100), file(12, 100)); worse != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("worse = %d, output:\n%s", worse, out.String())
	}
	// A metric without a bound is printed but never counted.
	bf.EndToEnd = bf.EndToEnd[1:]
	out.Reset()
	if worse := compare(&out, bf, file(10, 100), file(12, 100)); worse != 0 || !strings.Contains(out.String(), verdictNotJudged) {
		t.Errorf("p50_ms unbound: worse = %d, output:\n%s", worse, out.String())
	}
}
