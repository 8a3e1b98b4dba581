package hadamard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Matrix returns the dense N×N unnormalized Hadamard matrix (entries ±1),
// the oracle TestTransformMatchesMatrix checks Transform against.
func Matrix(n int) [][]float32 {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("hadamard: size %d is not a power of two", n))
	}
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, n)
		for j := range out[i] {
			// H[i][j] = (-1)^{popcount(i & j)}
			if popcount(i&j)%2 == 0 {
				out[i][j] = 1
			} else {
				out[i][j] = -1
			}
		}
	}
	return out
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		c++
		x &= x - 1
	}
	return c
}

func TestTransformMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 32} {
		x := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
		}
		want := make([]float64, n)
		H := Matrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want[i] += float64(H[i][j]) * float64(x[j])
			}
		}
		got := append([]float32(nil), x...)
		Transform(got)
		for i := range want {
			if math.Abs(float64(got[i])-want[i]) > 1e-4 {
				t.Fatalf("n=%d: FWHT[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestTransformKnownN4(t *testing.T) {
	x := []float32{1, 0, 1, 0}
	Transform(x)
	want := []float32{2, 2, 0, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("FWHT = %v, want %v", x, want)
		}
	}
}

func TestTransformPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FWHT of length 3 did not panic")
		}
	}()
	Transform(make([]float32, 3))
}

func TestDoubleTransformIsScaledIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 16
	x := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	orig := append([]float32(nil), x...)
	Transform(x)
	Transform(x)
	for i := range x {
		if math.Abs(float64(x[i]-float32(n)*orig[i])) > 1e-3 {
			t.Fatalf("H·H != N·I at %d: %v vs %v", i, x[i], float32(n)*orig[i])
		}
	}
}

func TestScaledTransformIsInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 64
	x := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	orig := append([]float32(nil), x...)
	// H/sqrt(N) is orthonormal and symmetric, so applying it twice is the
	// identity.
	inv := float32(1 / math.Sqrt(float64(n)))
	for pass := 0; pass < 2; pass++ {
		Transform(x)
		for i := range x {
			x[i] *= inv
		}
	}
	for i := range x {
		if math.Abs(float64(x[i]-orig[i])) > 1e-4 {
			t.Fatalf("scaled FWHT not involution at %d", i)
		}
	}
}

func TestMatrixOrthogonalRows(t *testing.T) {
	n := 8
	H := Matrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var dot float64
			for k := 0; k < n; k++ {
				dot += float64(H[i][k]) * float64(H[j][k])
			}
			want := 0.0
			if i == j {
				want = float64(n)
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("rows %d,%d dot = %v, want %v", i, j, dot, want)
			}
		}
	}
}

// Property: FWHT preserves energy up to factor N (Parseval for Hadamard).
func TestEnergyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(6))
		x := make([]float32, n)
		var e0 float64
		for i := range x {
			x[i] = rng.Float32()*2 - 1
			e0 += float64(x[i]) * float64(x[i])
		}
		Transform(x)
		var e1 float64
		for i := range x {
			e1 += float64(x[i]) * float64(x[i])
		}
		return math.Abs(e1-float64(n)*e0) < 1e-3*(1+e1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFWHT1024(b *testing.B) {
	x := make([]float32, 1024)
	for i := range x {
		x[i] = float32(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transform(x)
	}
}
