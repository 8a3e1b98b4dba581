// Package stats provides small numeric helpers used by the benchmark
// harness: means, standard deviations, sample summaries (extrema and tail
// percentiles), arg-max and compression ratios. All functions are
// deterministic.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs
// (divide by N, matching numpy.std's default, which the paper uses).
// It returns 0 for slices with fewer than two elements.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// percentileSorted interpolates the p-th percentile of an already-sorted,
// non-empty slice.
func percentileSorted(sorted []float64, p float64) float64 {
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the order statistics a latency report needs: count, mean,
// extrema and the p50/p95/p99 tail percentiles.
type Summary struct {
	Count         int
	Mean          float64
	Min, Max      float64
	P50, P95, P99 float64
}

// Summarize computes a Summary of xs. The zero Summary is returned for an
// empty slice, so callers can report "no traffic yet" without panicking.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return Summary{
		Count: len(cp),
		Mean:  Mean(cp),
		Min:   cp[0],
		Max:   cp[len(cp)-1],
		P50:   percentileSorted(cp, 50),
		P95:   percentileSorted(cp, 95),
		P99:   percentileSorted(cp, 99),
	}
}

// ArgMax returns the index of the largest element of xs (the first such
// index on ties), or -1 for an empty slice. It is the class-selection rule
// of the serving path, shared so every consumer breaks ties identically.
func ArgMax(xs []float32) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// CompressionRatio returns the fraction of parameters removed relative to
// the baseline, e.g. 0.985 for the paper's 98.5% butterfly compression.
func CompressionRatio(baselineParams, compressedParams int) float64 {
	if baselineParams <= 0 {
		panic("stats: CompressionRatio with non-positive baseline")
	}
	return 1 - float64(compressedParams)/float64(baselineParams)
}
