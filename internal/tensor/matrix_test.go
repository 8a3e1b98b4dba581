package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.FillRandom(rng, 1)
	return m
}

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 {
		t.Fatalf("At(1,2) = %v, want 42", m.At(1, 2))
	}
	if m.Data[5] != 42 {
		t.Fatalf("row-major layout broken: %v", m.Data)
	}
}

func TestIdentityMultiplication(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 5)
	got := MatMul(a, Identity(5))
	if !AlmostEqual(a, got, 1e-6) {
		t.Fatalf("A*I != A (maxdiff %v)", MaxAbsDiff(a, got))
	}
	got = MatMul(Identity(5), a)
	if !AlmostEqual(a, got, 1e-6) {
		t.Fatalf("I*A != A (maxdiff %v)", MaxAbsDiff(a, got))
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	want := FromSlice(2, 2, []float32{58, 64, 139, 154})
	got := MatMul(a, b)
	if !AlmostEqual(want, got, 1e-6) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched matmul did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// scalarMatMul is the scalar loop matMulRows ran before it called
// microkernel.AccRow: per output row, p ascending, every nonzero a[i][p]
// adds one pass of av·b[p][j] into the zeroed row.
func scalarMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := 0; p < a.Cols; p++ {
			av := a.At(i, p)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += av * b.At(p, j)
			}
		}
	}
	return out
}

// TestMatMulKernelsMatchScalarLoop pins MatMulInto, MatMulParallelInto and
// MatMulColsBiasActInto to the scalar loop bit for bit, the sign of zero
// included, at GOMAXPROCS 1 and 2, on operands where a quarter of a is a
// ReLU's +0 or a −0, and some rows of a are all zero (their output must
// stay +0 even where b holds −0, Inf or NaN).
func TestMatMulKernelsMatchScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	negZero := float32(math.Copysign(0, -1))
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, sh := range [][3]int{{50, 1024, 32}, {50, 32, 1024}, {7, 45, 50}, {3, 9, 1}, {64, 130, 100}} {
			m, n, k := sh[0], sh[1], sh[2]
			a, b := randomMatrix(rng, m, n), randomMatrix(rng, n, k)
			for i := range a.Data {
				switch rng.Intn(8) {
				case 0:
					a.Data[i] = 0
				case 1:
					a.Data[i] = negZero
				}
			}
			for p := range a.Row(m - 1) {
				a.Data[(m-1)*n+p] = 0
			}
			b.Data[0], b.Data[len(b.Data)-1] = float32(math.Inf(1)), float32(math.NaN())
			b.Data[len(b.Data)/2] = negZero
			want := scalarMatMul(a, b)
			tag := fmt.Sprintf("procs=%d %v", procs, sh)
			got := New(m, k)
			MatMulInto(got, a, b)
			assertSameBits(t, tag+" MatMulInto", want, got)
			MatMulParallelInto(got, a, b)
			assertSameBits(t, tag+" MatMulParallelInto", want, got)
			MatMulColsBiasActInto(got, 0, a, b, 0, k, nil, ActNone)
			assertSameBits(t, tag+" MatMulColsBiasActInto", want, got)
			// A window reads b's rows in place through its stride.
			lo := k / 3
			win := New(m, k-lo)
			MatMulColsBiasActInto(win, 0, a, b, lo, k, nil, ActNone)
			for i := 0; i < m; i++ {
				copy(got.Row(i)[lo:], win.Row(i))
			}
			assertSameBits(t, tag+" MatMulColsBiasActInto window", want, got)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// assertSameBits fails unless got holds want's bits, any NaN matching
// any NaN.
func assertSameBits(t *testing.T, tag string, want, got *Matrix) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if w != w && g != g {
			continue
		}
		if math.Float32bits(w) != math.Float32bits(g) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", tag, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

func TestParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][3]int{{129, 65, 77}, {4, 4, 4}, {200, 10, 1}} {
		a := randomMatrix(rng, shape[0], shape[1])
		b := randomMatrix(rng, shape[1], shape[2])
		want := MatMul(a, b)
		got := MatMulParallel(a, b)
		if !AlmostEqual(want, got, 1e-4) {
			t.Fatalf("parallel mismatch for shape %v: %v", shape, MaxAbsDiff(want, got))
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 7, 3)
	b := a.Transpose().Transpose()
	if !AlmostEqual(a, b, 0) {
		t.Fatal("transpose twice != original")
	}
}

func TestTransposeShape(t *testing.T) {
	a := New(2, 5)
	at := a.Transpose()
	if at.Rows != 5 || at.Cols != 2 {
		t.Fatalf("transpose shape = %dx%d, want 5x2", at.Rows, at.Cols)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	if got := Add(a, b); got.Data[2] != 33 {
		t.Fatalf("Add wrong: %v", got.Data)
	}
	if got := Sub(b, a); got.Data[0] != 9 {
		t.Fatalf("Sub wrong: %v", got.Data)
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	AddRowVector(m, []float32{10, 20})
	want := []float32{11, 22, 13, 24}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddRowVector got %v, want %v", m.Data, want)
		}
	}
	sums := ColSums(m)
	if sums[0] != 24 || sums[1] != 46 {
		t.Fatalf("ColSums = %v, want [24 46]", sums)
	}
}

func TestMatMulFlops(t *testing.T) {
	if got := MatMulFlops(2, 3, 4); got != 48 {
		t.Fatalf("MatMulFlops = %v, want 48", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ on random small shapes.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(12)
		n := 1 + r.Intn(12)
		k := 1 + r.Intn(12)
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, n, k)
		left := MatMul(a, b).Transpose()
		right := MatMul(b.Transpose(), a.Transpose())
		return AlmostEqual(left, right, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) == A·B + A·C.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(10)
		n := 1 + r.Intn(10)
		k := 1 + r.Intn(10)
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, n, k)
		c := randomMatrix(rng, n, k)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return AlmostEqual(left, right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMulNaive256(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randomMatrix(rng, 256, 256)
	y := randomMatrix(rng, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

// BenchmarkTrainProducts times MatMulParallelInto at the shapes of one
// 50-sample training step of the paper's SHL (N = 1024, 10 classes). The
// dense head's forward and weight gradient take a ReLU output as a, so
// about half of their terms are zero and skipped; pixelfly's low-rank
// products (rank 32) take a with no zeros, so there the skip only costs.
func BenchmarkTrainProducts(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	hidden := randMatrix(rng, 50, 1024)
	for i, v := range hidden.Data {
		if !(v > 0) {
			hidden.Data[i] = 0
		}
	}
	for _, c := range []struct {
		name string
		a, b *Matrix
	}{
		{"head_forward/relu_50x1024x10", hidden, randMatrix(rng, 1024, 10)},
		{"head_weight_grad/relu_1024x50x10", hidden.Transpose(), randMatrix(rng, 50, 10)},
		{"lowrank/dense_50x1024x32", randMatrix(rng, 50, 1024), randMatrix(rng, 1024, 32)},
		{"lowrank/dense_50x32x1024", randMatrix(rng, 50, 32), randMatrix(rng, 32, 1024)},
	} {
		dst := New(c.a.Rows, c.b.Cols)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulParallelInto(dst, c.a, c.b)
			}
		})
	}
}

func BenchmarkMatMulParallel256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randomMatrix(rng, 256, 256)
	y := randomMatrix(rng, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulParallel(x, y)
	}
}
