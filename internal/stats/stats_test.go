package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

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

func TestCompressionRatioPaperValue(t *testing.T) {
	// Paper: butterfly 16390 params vs baseline 1059850 -> 98.5% compression.
	got := CompressionRatio(1059850, 16390)
	if !almostEqual(got, 0.985, 0.001) {
		t.Fatalf("CompressionRatio = %v, want ~0.985", got)
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
		m, lo, hi := Mean(xs), slices.Min(xs), slices.Max(xs)
		return m >= lo-1e-9*math.Abs(lo)-1e-9 &&
			m <= hi+1e-9*math.Abs(hi)+1e-9
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
