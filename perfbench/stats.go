package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank sample quantile of xs: the smallest
// sample such that at least q·n samples are ≤ it. The result is always one
// of the samples, so it lies within [min, max] — unlike bucketed histogram
// quantiles, which report bucket bounds. xs is not modified; an empty input
// yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
