package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// TestMatMulPackedMatchesReference is the tiled-vs-reference property
// test: across random shapes — including column counts off the 8-wide
// panel — the packed kernels must equal the reference
// kernels under float comparison (bit-for-bit up to the sign of exact
// zeros, the only divergence the dropped av==0 skip can introduce).
func TestMatMulPackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {1, 64, 10}, {2, 7, 3}, {3, 9, 8}, {4, 8, 16},
		{5, 33, 17}, {6, 10, 24}, {7, 127, 65}, {8, 64, 64},
		{13, 31, 12}, {64, 256, 256}, {1, 1024, 10},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := randMatrix(rng, m, n)
		b := randMatrix(rng, n, k)
		// Seed exact zeros so the dropped skip branch is exercised.
		b.Data[0] = 0
		if len(a.Data) > 1 {
			a.Data[1] = 0
		}
		pb := Pack(b)
		bias := make([]float32, k)
		for i := range bias {
			bias[i] = rng.Float32()*2 - 1
		}

		want := New(m, k)
		got := New(m, k)

		MatMulInto(want, a, b)
		MatMulPackedColsBiasActInto(got, a, pb, 0, k, nil, ActNone)
		assertEqualMat(t, "MatMulPackedColsBiasActInto/plain", sh, want, got)

		MatMulParallelInto(want, a, b)
		MatMulPackedBiasActParallelInto(got, a, pb, nil, ActNone)
		assertEqualMat(t, "MatMulPackedBiasActParallelInto/plain", sh, want, got)

		for _, act := range []Activation{ActNone, ActReLU} {
			MatMulColsBiasActInto(want, 0, a, b, 0, k, bias, act)
			MatMulPackedColsBiasActInto(got, a, pb, 0, k, bias, act)
			assertEqualMat(t, fmt.Sprintf("MatMulPackedColsBiasActInto/%v", act), sh, want, got)

			MatMulPackedBiasActParallelInto(got, a, pb, bias, act)
			assertEqualMat(t, fmt.Sprintf("MatMulPackedBiasActParallelInto/%v", act), sh, want, got)
		}
	}
}

// TestMatMulPackedColsMatchesReference checks the sharded column-window
// form, on runs of whole panels of one pack, against the reference
// MatMulColsBiasActInto product of the same window, the ragged tail
// panel included.
func TestMatMulPackedColsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, n, full := 6, 37, 43
	a := randMatrix(rng, m, n)
	w := randMatrix(rng, n, full)
	pb := Pack(w)
	for _, win := range [][2]int{{0, 43}, {0, 16}, {16, 24}, {24, 43}, {40, 43}, {8, 8}} {
		lo, hi := win[0], win[1]
		k := hi - lo
		bias := make([]float32, k)
		for i := range bias {
			bias[i] = rng.Float32()*2 - 1
		}
		want := randMatrix(rng, m, full)
		got := want.Clone()
		MatMulColsBiasActInto(want, lo, a, w, lo, hi, bias, ActReLU)
		MatMulPackedColsBiasActInto(got, a, pb, lo, hi, bias, ActReLU)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("window [%d,%d): data[%d] = %v, want %v", lo, hi, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func assertEqualMat(t *testing.T, op string, sh [3]int, want, got *Matrix) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s %v: data[%d] = %v, want %v", op, sh, i, got.Data[i], want.Data[i])
		}
	}
}

// BenchmarkMatMulInto compares the reference row kernel against the
// register-tiled packed kernel at serving-realistic shapes (batch 1–64,
// width 256–1024). The tiled path's win comes from eliminating the
// per-(p,j) dst load/store traffic and the untaken av==0 branch.
func BenchmarkMatMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range [][2]int{{1, 256}, {8, 256}, {1, 1024}, {16, 1024}, {64, 1024}} {
		batch, width := sh[0], sh[1]
		a := randMatrix(rng, batch, width)
		w := randMatrix(rng, width, width)
		pb := Pack(w)
		dst := New(batch, width)
		flops := int64(2 * batch * width * width)
		b.Run(fmt.Sprintf("ref/b%dxn%d", batch, width), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, w)
			}
		})
		b.Run(fmt.Sprintf("tiled/b%dxn%d", batch, width), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				MatMulPackedColsBiasActInto(dst, a, pb, 0, width, nil, ActNone)
			}
		})
	}
}
