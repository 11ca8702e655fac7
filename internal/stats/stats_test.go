package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{4.5})
	if s.N != 1 || !almostEq(s.Mean, 4.5) || !almostEq(s.Min, 4.5) ||
		!almostEq(s.Max, 4.5) || !almostEq(s.Median, 4.5) || s.Stddev != 0 {
		t.Fatalf("bad single-value summary: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(s.Mean, 5) {
		t.Fatalf("mean = %v, want 5", s.Mean)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	if !almostEq(s.Stddev, math.Sqrt(32.0/7.0)) {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 5 {
		t.Fatal("percentile endpoints wrong")
	}
	if !almostEq(Percentile(xs, 0.5), 3) {
		t.Fatal("median wrong")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if !almostEq(Percentile(xs, 0.25), 2.5) {
		t.Fatalf("P25 of {0,10} = %v", Percentile(xs, 0.25))
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { Percentile(nil, 0.5) }},
		{"p>1", func() { Percentile([]float64{1}, 1.5) }},
		{"p<0", func() { Percentile([]float64{1}, -0.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		if n == 0 {
			n = 1
		}
		r := NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Percentile(xs, math.Min(p, 1))
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almostEq(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("Mean wrong")
	}
	if !almostEq(Sum([]float64{1.5, 2.5}), 4) {
		t.Fatal("Sum wrong")
	}
}

func TestRelDev(t *testing.T) {
	if !almostEq(RelDev(110, 100), 0.10) {
		t.Fatal("RelDev(110,100)")
	}
	if RelDev(0, 0) != 0 {
		t.Fatal("RelDev(0,0)")
	}
	if !math.IsInf(RelDev(1, 0), 1) {
		t.Fatal("RelDev(1,0)")
	}
	if !almostEq(RelDev(90, 100), -0.10) {
		t.Fatal("RelDev(90,100)")
	}
}

func TestDiscreteValidation(t *testing.T) {
	if _, err := NewDiscrete(nil, nil); err == nil {
		t.Fatal("empty distribution accepted")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewDiscrete([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Fatal("zero total weight accepted")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

func TestDiscreteSampleFrequencies(t *testing.T) {
	// The paper's Table 6 shape: three values at 25/50/25.
	d := MustDiscrete([]float64{10, 20, 30}, []float64{0.25, 0.50, 0.25})
	r := NewRNG(99)
	counts := map[float64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	for v, want := range map[float64]float64{10: 0.25, 20: 0.50, 30: 0.25} {
		got := float64(counts[v]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("value %v sampled at rate %v, want %v", v, got, want)
		}
	}
}

func TestDiscreteMean(t *testing.T) {
	d := MustDiscrete([]float64{10, 20, 30}, []float64{1, 2, 1})
	if !almostEq(d.Mean(), 20) {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestDiscreteSingleValue(t *testing.T) {
	d := MustDiscrete([]float64{42}, []float64{1})
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if d.Sample(r) != 42 {
			t.Fatal("singleton distribution sampled wrong value")
		}
	}
}

func TestDiscreteAccessors(t *testing.T) {
	d := MustDiscrete([]float64{1, 2}, []float64{3, 1})
	vs := d.Values()
	ps := d.Probabilities()
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("Values = %v", vs)
	}
	if !almostEq(ps[0], 0.75) || !almostEq(ps[1], 0.25) {
		t.Fatalf("Probabilities = %v", ps)
	}
	// Mutating the copies must not affect the distribution.
	vs[0] = 100
	if d.Values()[0] != 1 {
		t.Fatal("Values returned a live reference")
	}
}

func TestDiscreteString(t *testing.T) {
	d := MustDiscrete([]float64{10, 20}, []float64{1, 3})
	s := d.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestMustDiscretePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDiscrete did not panic on bad input")
		}
	}()
	MustDiscrete(nil, nil)
}
