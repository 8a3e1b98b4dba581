package tensor

import (
	"fmt"
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
// the serial reference kernel (MatMulColsBiasActInto over every column)
// and the packed row-parallel one — to the unfused three-sweep chain,
// for both activations, across sizes straddling the parallel threshold.
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
			MatMulColsBiasActInto(got, 0, a, b, 0, k, bias, act)
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
	MatMulColsBiasActInto(got, 0, a, b, 0, 6, nil, ActReLU)
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

// TestMatMulColsBiasActInto pins both fused column-window kernels — the
// packed one on a run of whole panels of the full pack, and the AccRow
// one on any window of b, into the same columns or into a window-wide
// dst — to the unfused reference window chain, and checks columns
// outside the window stay untouched.
func TestMatMulColsBiasActInto(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const rows, n, full = 6, 12, 20
	a := randomMatrix(rng, rows, n)
	b := randomMatrix(rng, n, full)
	pb := Pack(b)
	for _, win := range [][2]int{{0, full}, {0, 8}, {8, 16}, {16, full}, {8, full}} {
		lo, hi := win[0], win[1]
		w := hi - lo
		bias := randomBias(rng, w)
		bw := New(n, w)
		for p := 0; p < n; p++ {
			copy(bw.Row(p), b.Row(p)[lo:hi])
		}
		sentinel := randomMatrix(rng, rows, full)
		want := sentinel.Clone()
		MatMulColsInto(want, lo, a, bw)
		AddRowVectorCols(want, lo, bias)
		for i := 0; i < rows; i++ {
			row := want.Row(i)[lo:hi]
			for j, v := range row {
				if !(v > 0) {
					row[j] = 0
				}
			}
		}
		tag := fmt.Sprintf("window [%d,%d)", lo, hi)

		got := sentinel.Clone()
		MatMulPackedColsBiasActInto(got, a, pb, lo, hi, bias, ActReLU)
		assertBitIdentical(t, "packed "+tag, want, got)

		got = sentinel.Clone()
		MatMulColsBiasActInto(got, lo, a, b, lo, hi, bias, ActReLU)
		assertBitIdentical(t, "row "+tag, want, got)

		narrow := New(rows, w)
		MatMulColsBiasActInto(narrow, 0, a, b, lo, hi, bias, ActReLU)
		for i := 0; i < rows; i++ {
			for j := 0; j < w; j++ {
				if narrow.At(i, j) != want.At(i, lo+j) {
					t.Fatalf("row %s into a window-wide dst: (%d,%d) = %v, want %v", tag, i, j, narrow.At(i, j), want.At(i, lo+j))
				}
			}
		}
	}
	for name, fn := range map[string]func(){
		"packed window off a panel boundary": func() { MatMulPackedColsBiasActInto(New(rows, full), a, pb, 4, 16, nil, ActNone) },
		"packed window ending mid-panel":     func() { MatMulPackedColsBiasActInto(New(rows, full), a, pb, 8, 12, nil, ActNone) },
		"row window past b":                  func() { MatMulColsBiasActInto(New(rows, full), 0, a, b, 8, full+1, nil, ActNone) },
		"row window past dst":                func() { MatMulColsBiasActInto(New(rows, 4), 0, a, b, 0, 8, nil, ActNone) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAddInPlaceBiasAct pins the fused residual epilogue (pixelfly's
// low-rank tail), at full width and on a column window, to the unfused
// chain.
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
	AddInPlaceColsBiasAct(got, 0, src, bias, ActReLU)
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
