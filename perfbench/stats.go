package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and
// whether at least minBeyond samples lie beyond it. xs need not be
// sorted; it is not modified.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := rank(len(s), p)
	return s[k-1], len(s)-k >= minBeyond
}

// rank is the 1-based nearest-rank index of the p-quantile of n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minMax returns the extremes of xs.
func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
