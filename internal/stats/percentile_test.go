package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// Percentile returns the p-th percentile of xs (p in [0,100]) using linear
// interpolation between closest ranks, without modifying the input. It
// panics on an empty slice or a p outside [0,100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: Percentile %v outside [0,100]", p))
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return percentileSorted(cp, p)
}

func TestPercentileKnown(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15},
		{25, 20},
		{50, 35},
		{100, 50},
		{40, 29}, // rank 1.6: 20 + 0.6·(35−20)
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleElement(t *testing.T) {
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Fatalf("Percentile of singleton = %v, want 7", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated input: %v", xs)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"empty", func() { Percentile(nil, 50) }},
		{"negative", func() { Percentile([]float64{1}, -1) }},
		{"over100", func() { Percentile([]float64{1}, 101) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestSummarizeMatchesPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64((i*7919 + 13) % 1000) // deterministic shuffle of 0..999
	}
	s := Summarize(xs)
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	if s.Min != 0 || s.Max != 999 {
		t.Fatalf("Min/Max = %v/%v, want 0/999", s.Min, s.Max)
	}
	for _, c := range []struct {
		got, p float64
	}{{s.P50, 50}, {s.P95, 95}, {s.P99, 99}} {
		if want := Percentile(xs, c.p); c.got != want {
			t.Errorf("Summary p%v = %v, Percentile = %v", c.p, c.got, want)
		}
	}
	if math.Abs(s.Mean-Mean(xs)) > 1e-9 {
		t.Errorf("Summary mean = %v, want %v", s.Mean, Mean(xs))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero value", s)
	}
}
