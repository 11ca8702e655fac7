package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// With fewer, the value is set by a handful of outliers and does not
// repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs, or an error when
// fewer than minBeyond samples lie beyond it. End-to-end latency
// percentiles go through here.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	k := rank(n, p)
	if beyond := n - 1 - k; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*p, n, max(beyond, 0), minBeyond)
	}
	return sortedCopy(xs)[k], nil
}

// quantile is percentile without the sample-count guard, for per-layer
// diagnostics and per-trial spreads. It returns NaN for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sortedCopy(xs)[rank(len(xs), p)]
}

// rank is the nearest-rank index of the p-quantile among n sorted values.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	return min(max(k, 0), max(n-1, 0))
}

// median returns the middle value (mean of the middle two for an even
// count), or NaN for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread returns the minimum and maximum of xs.
func spread(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	return s[0], s[len(s)-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
