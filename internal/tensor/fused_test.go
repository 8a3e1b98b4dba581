package tensor

import (
	"math/rand"
	"testing"
)

// reluSweep applies the reference activation sweep (nn.ReLU's comparison)
// in place — the unfused pass the fused kernels must match bit-for-bit.
func reluSweep(m *Matrix) {
	for i, v := range m.Data {
		if !(v > 0) {
			m.Data[i] = 0
		}
	}
}

func randomBias(rng *rand.Rand, n int) []float32 {
	b := make([]float32, n)
	for i := range b {
		b[i] = rng.Float32()*2 - 1
	}
	return b
}

// assertBitIdentical fails unless a and b hold exactly the same float32
// bits (MaxAbsDiff would mask −0 vs +0 and NaN handling).
func assertBitIdentical(t *testing.T, tag string, a, b *Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", tag, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] && !(a.Data[i] != a.Data[i] && b.Data[i] != b.Data[i]) {
			t.Fatalf("%s: element %d differs: %g vs %g", tag, i, a.Data[i], b.Data[i])
		}
	}
}

// TestMatMulBiasActIntoMatchesUnfused pins the fused matmul epilogues —
// the serial reference kernel and the packed row-parallel one — to the
// unfused three-sweep chain, for both activations, across sizes
// straddling the parallel threshold.
func TestMatMulBiasActIntoMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{1, 4, 4}, {3, 16, 10}, {8, 64, 64}, {48, 48, 48}} {
		r, n, k := dims[0], dims[1], dims[2]
		a := randomMatrix(rng, r, n)
		b := randomMatrix(rng, n, k)
		bias := randomBias(rng, k)
		for _, act := range []Activation{ActNone, ActReLU} {
			want := New(r, k)
			MatMulInto(want, a, b)
			AddRowVector(want, bias)
			if act == ActReLU {
				reluSweep(want)
			}
			got := New(r, k)
			MatMulBiasActInto(got, a, b, bias, act)
			assertBitIdentical(t, "serial", want, got)
			gotPar := New(r, k)
			MatMulPackedBiasActParallelInto(gotPar, a, Pack(b), bias, act)
			assertBitIdentical(t, "parallel", want, gotPar)
		}
	}
	// Above the parallel threshold (rows·n·k ≥ 1<<16) the goroutine path
	// engages; the row partition must keep it bit-identical.
	a := randomMatrix(rng, 40, 48)
	b := randomMatrix(rng, 48, 40)
	bias := randomBias(rng, 40)
	want := New(40, 40)
	MatMulParallelInto(want, a, b)
	AddRowVector(want, bias)
	reluSweep(want)
	got := New(40, 40)
	MatMulPackedBiasActParallelInto(got, a, Pack(b), bias, ActReLU)
	assertBitIdentical(t, "parallel-large", want, got)
}

// TestMatMulBiasActNilBias checks the bias-free form (no +0 perturbation).
func TestMatMulBiasActNilBias(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomMatrix(rng, 5, 8)
	b := randomMatrix(rng, 8, 6)
	want := MatMul(a, b)
	reluSweep(want)
	got := New(5, 6)
	MatMulBiasActInto(got, a, b, nil, ActReLU)
	assertBitIdentical(t, "nil-bias", want, got)
}

// TestApplyBiasActInto covers the generic epilogue sweep, aliased and not.
func TestApplyBiasActInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randomMatrix(rng, 7, 9)
	bias := randomBias(rng, 9)
	want := x.Clone()
	AddRowVector(want, bias)
	reluSweep(want)

	got := New(7, 9)
	ApplyBiasActInto(got, x, bias, ActReLU)
	assertBitIdentical(t, "distinct", want, got)

	aliased := x.Clone()
	ApplyBiasActInto(aliased, aliased, bias, ActReLU)
	assertBitIdentical(t, "aliased", want, aliased)
}

// TestMatMulColsBiasActInto pins the packed fused column-window kernel —
// the tensor-parallel shard path — to the unfused reference window chain,
// and checks columns outside the window stay untouched.
func TestMatMulColsBiasActInto(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const rows, n, full, lo, w = 6, 12, 20, 5, 8
	a := randomMatrix(rng, rows, n)
	b := randomMatrix(rng, n, w)
	bias := randomBias(rng, w)

	want := New(rows, full)
	want.FillRandom(rng, 1)
	sentinel := want.Clone()
	MatMulColsInto(want, lo, a, b)
	AddRowVectorCols(want, lo, bias)
	for i := 0; i < rows; i++ {
		row := want.Row(i)[lo : lo+w]
		for j, v := range row {
			if !(v > 0) {
				row[j] = 0
			}
		}
	}

	got := sentinel.Clone()
	MatMulPackedColsBiasActInto(got, lo, a, Pack(b), bias, ActReLU)
	assertBitIdentical(t, "window", want, got)
	for i := 0; i < rows; i++ {
		for j := 0; j < full; j++ {
			if j >= lo && j < lo+w {
				continue
			}
			if got.At(i, j) != sentinel.At(i, j) {
				t.Fatalf("column %d outside window modified", j)
			}
		}
	}
}

// TestAddInPlaceBiasAct pins the fused residual epilogue (pixelfly's
// low-rank tail) and its column-window form to the unfused chain.
func TestAddInPlaceBiasAct(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const rows, full, lo, w = 5, 14, 3, 6
	src := randomMatrix(rng, rows, w)
	bias := randomBias(rng, w)

	base := randomMatrix(rng, rows, w)
	want := base.Clone()
	AddInPlace(want, src)
	AddRowVector(want, bias)
	reluSweep(want)
	got := base.Clone()
	AddInPlaceBiasAct(got, src, bias, ActReLU)
	assertBitIdentical(t, "full", want, got)

	wide := randomMatrix(rng, rows, full)
	wantW := wide.Clone()
	AddInPlaceCols(wantW, lo, src)
	AddRowVectorCols(wantW, lo, bias)
	for i := 0; i < rows; i++ {
		row := wantW.Row(i)[lo : lo+w]
		for j, v := range row {
			if !(v > 0) {
				row[j] = 0
			}
		}
	}
	gotW := wide.Clone()
	AddInPlaceColsBiasAct(gotW, lo, src, bias, ActReLU)
	assertBitIdentical(t, "window", wantW, gotW)
}
