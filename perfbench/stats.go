package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as the tail figure.
const minBeyond = 10

// tailLadder is the set of percentiles the tail figure is chosen from.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median returns the interpolated median of sorted xs (0 when empty).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// rankOf is the nearest-rank index of percentile p in n samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000…02)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r - 1
}

// percentile returns the nearest-rank percentile p of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))]
}

// tailOf returns the highest ladder percentile of sorted xs with at
// least minBeyond samples above its rank, and that percentile. With
// too few samples for any ladder step it returns the maximum as p100.
func tailOf(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	value, pct = sorted[n-1], 100
	for _, p := range tailLadder {
		if n-1-rankOf(p, n) >= minBeyond {
			value, pct = sorted[rankOf(p, n)], p
		}
	}
	return value, pct
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
