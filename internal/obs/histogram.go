package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram safe for concurrent Observe
// without locks or allocations: each bucket is an atomic counter and the
// running sum is a CAS-updated float word. Buckets are defined by their
// upper bounds (ascending); values above the last bound land in an
// implicit +Inf bucket. Log-spaced bounds (ExpBuckets) give constant
// relative quantile error across the orders of magnitude a serving
// latency spans.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64
}

// NewHistogram creates a histogram over the given ascending upper bounds.
// Panics on empty or unsorted bounds — bucket layouts are compile-time
// decisions, not runtime inputs.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v <= %v",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBuckets returns n geometrically spaced upper bounds starting at
// start: start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets covers 1µs to ~33s in factor-2 steps — the span between
// a single fused-plan step and a cold compile on a loaded machine.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 26) }

// SizeBuckets covers 1..2^(n-1) in factor-2 steps (batch sizes, queue
// depths).
func SizeBuckets(n int) []float64 { return ExpBuckets(1, 2, n) }

// Observe records one value. Lock-free and allocation-free.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns a snapshot of the per-bucket (non-cumulative)
// counts, the last entry being the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
