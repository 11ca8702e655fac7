package stats

import (
	"math"
	"testing"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d for identical seeds", i, av, bv)
		}
	}
}

func TestNewRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split()
	c2 := r.Split()
	// Children must differ from each other and from the parent stream.
	v1, v2, vp := c1.Uint64(), c2.Uint64(), r.Uint64()
	if v1 == v2 || v1 == vp || v2 == vp {
		t.Fatalf("split children not independent: %d %d %d", v1, v2, vp)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(5)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d has %d draws, want about %.0f", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRangeInclusive(t *testing.T) {
	r := NewRNG(9)
	sawLo, sawHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.Range(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("Range(3,7) returned %d", v)
		}
		if v == 3 {
			sawLo = true
		}
		if v == 7 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Fatalf("Range(3,7) never hit an endpoint: lo=%v hi=%v", sawLo, sawHi)
	}
}

func TestRangeSingleton(t *testing.T) {
	r := NewRNG(1)
	if v := r.Range(5, 5); v != 5 {
		t.Fatalf("Range(5,5) = %d", v)
	}
}

func TestPickCoversAll(t *testing.T) {
	r := NewRNG(13)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick covered %d of 3 elements", len(seen))
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}
