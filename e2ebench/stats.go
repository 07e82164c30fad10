package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is the sample count below which a latency is reported
// as the median alone: with fewer than forty samples no percentile
// above the median has ten samples beyond it worth calling a tail.
const minTailSamples = 40

// tailPercentile returns the highest whole percentile, at most 99, that
// leaves at least ten of n samples beyond it, and 50 (the median alone)
// when n is under minTailSamples.
func tailPercentile(n int) int {
	if n < minTailSamples {
		return 50
	}
	p := 99
	for p > 50 && n*(100-p) < 10*100 {
		p--
	}
	return p
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place). It returns 0 for an empty slice.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(float64(p) / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), sorting xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to fractional milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
