package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the least number of samples that must lie beyond a
// reported percentile: fewer, and the percentile is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// It refuses when fewer than minBeyond samples lie above the rank.
// Failed requests enter xs as +Inf, so they count as missing any limit.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailPercentile is the highest percentile, at most 90, that keeps
// minBeyond samples beyond it: p90 wherever there are 100 samples or
// more, lower on runs with fewer.
func tailPercentile(n int) float64 {
	p := math.Floor(100 * float64(n-minBeyond) / float64(n))
	return math.Min(90, p)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
