package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics for a sample of float64 values.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P05    float64
	P95    float64
}

// Summarize computes descriptive statistics over xs. A nil or empty sample
// yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 0.50)
	s.P05 = Percentile(sorted, 0.05)
	s.P95 = Percentile(sorted, 0.95)
	return s
}

// Percentile returns the p-quantile (p in [0,1]) of an ascending-sorted
// sample using linear interpolation between closest ranks. It panics if
// sorted is empty or p is outside [0,1].
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Percentile p=%v out of [0,1]", p))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// RelDev returns the relative deviation (x-ref)/ref of x from a reference
// value, as used by the paper's solution-quality numbers ("2.9% deviation
// for execution time"). A zero reference with zero x is a zero deviation;
// a zero reference with non-zero x returns +Inf.
func RelDev(x, ref float64) float64 {
	if ref == 0 {
		if x == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (x - ref) / ref
}
