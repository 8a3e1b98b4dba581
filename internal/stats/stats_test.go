package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying the input.
// It panics on an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Median of empty slice")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return 0.5 * (cp[n/2-1] + cp[n/2])
}

// Speedup returns baseline/candidate, the conventional "×" factor: values
// above 1 mean candidate is faster than baseline. It panics when candidate
// is zero.
func Speedup(baseline, candidate float64) float64 {
	if candidate == 0 {
		panic("stats: Speedup with zero candidate time")
	}
	return baseline / candidate
}

// GFlops converts a floating point operation count and a duration in
// seconds into GFLOP/s.
func GFlops(flops float64, seconds float64) float64 {
	if seconds <= 0 {
		panic("stats: GFlops with non-positive time")
	}
	return flops / seconds / 1e9
}

// FormatSI renders a value with an SI suffix (k, M, G, T) using 3 significant
// digits, e.g. 62.5e12 -> "62.5T".
func FormatSI(v float64) string {
	abs := math.Abs(v)
	switch {
	case abs >= 1e12:
		return trimZeros(v/1e12) + "T"
	case abs >= 1e9:
		return trimZeros(v/1e9) + "G"
	case abs >= 1e6:
		return trimZeros(v/1e6) + "M"
	case abs >= 1e3:
		return trimZeros(v/1e3) + "k"
	default:
		return trimZeros(v)
	}
}

func trimZeros(v float64) string {
	s := fmt.Sprintf("%.3g", v)
	return s
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestStdConstantSeries(t *testing.T) {
	if got := Std([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("Std of constants = %v, want 0", got)
	}
}

func TestStdKnown(t *testing.T) {
	// population std of {2,4,4,4,5,5,7,9} is exactly 2
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Std(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", got)
	}
}

func TestStdShort(t *testing.T) {
	if got := Std([]float64{3}); got != 0 {
		t.Fatalf("Std of single element = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Fatalf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Fatalf("Max = %v, want 7", got)
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestMedianOdd(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Fatalf("Median = %v, want 5", got)
	}
}

func TestMedianEven(t *testing.T) {
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(2.0, 1.0); got != 2.0 {
		t.Fatalf("Speedup = %v, want 2", got)
	}
}

func TestCompressionRatioPaperValue(t *testing.T) {
	// Paper: butterfly 16390 params vs baseline 1059850 -> 98.5% compression.
	got := CompressionRatio(1059850, 16390)
	if !almostEqual(got, 0.985, 0.001) {
		t.Fatalf("CompressionRatio = %v, want ~0.985", got)
	}
}

func TestGFlops(t *testing.T) {
	// 2e9 flops in 1 second = 2 GFLOP/s.
	if got := GFlops(2e9, 1.0); got != 2.0 {
		t.Fatalf("GFlops = %v, want 2", got)
	}
}

func TestFormatSI(t *testing.T) {
	cases := map[float64]string{
		62.5e12: "62.5T",
		933e9:   "933G",
		1.5e6:   "1.5M",
		2048:    "2.05k",
		12:      "12",
	}
	for in, want := range cases {
		if got := FormatSI(in); got != want {
			t.Errorf("FormatSI(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: mean is bounded by min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // avoid overflow in the sum; not the property under test
			}
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9*math.Abs(Min(xs))-1e-9 &&
			m <= Max(xs)+1e-9*math.Abs(Max(xs))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: std is translation invariant.
func TestStdTranslationInvariantProperty(t *testing.T) {
	f := func(xs []float64, shift float64) bool {
		if len(xs) < 2 {
			return true
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
			clean = append(clean, x)
		}
		shifted := make([]float64, len(clean))
		for i, x := range clean {
			shifted[i] = x + shift
		}
		a, b := Std(clean), Std(shifted)
		return almostEqual(a, b, 1e-6*(1+math.Abs(a)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		xs   []float32
		want int
	}{
		{nil, -1},
		{[]float32{}, -1},
		{[]float32{3}, 0},
		{[]float32{1, 5, 2}, 1},
		{[]float32{-4, -1, -9}, 1},
		{[]float32{2, 7, 7, 3}, 1}, // first index wins ties
		{[]float32{9, 1, 2}, 0},
		{[]float32{0, 0, 1}, 2},
	}
	for i, c := range cases {
		if got := ArgMax(c.xs); got != c.want {
			t.Errorf("case %d: ArgMax(%v) = %d, want %d", i, c.xs, got, c.want)
		}
	}
}
