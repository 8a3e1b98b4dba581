package obs

import (
	"math"
	"sync"
	"testing"
)

// observed returns how many values h holds, the _count the Prometheus
// exposition writes.
func observed(h *Histogram) int64 {
	var n int64
	for _, c := range h.BucketCounts() {
		n += c
	}
	return n
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	if len(b) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(b), len(want))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestHistogramObserveAndCounts(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	// le=1 holds {0.5, 1}; le=10 holds {5}; le=100 holds {50}; +Inf {500}.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if n := observed(h); n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	if math.Abs(h.Sum()-556.5) > 1e-9 {
		t.Fatalf("sum = %v, want 556.5", h.Sum())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 8))
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(1 + g%4))
			}
		}(g)
	}
	wg.Wait()
	if n := observed(h); n != goroutines*perG {
		t.Fatalf("count = %d, want %d", n, goroutines*perG)
	}
}
