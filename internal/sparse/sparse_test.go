package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestBSRBuildAndRoundTrip(t *testing.T) {
	pattern := [][2]int{{0, 0}, {0, 1}, {1, 1}, {2, 0}}
	b, err := NewBSR(12, 8, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumBlocks() != 4 || b.BlockRows != 3 || b.BlockCols != 2 {
		t.Fatalf("unexpected BSR layout: %+v", b)
	}
	// Fill blocks with identifiable values.
	for n := 0; n < b.NumBlocks(); n++ {
		blk := b.Block(n)
		for i := range blk {
			blk[i] = float32(n + 1)
		}
	}
	d := b.ToDense()
	if d.At(0, 0) != 1 || d.At(0, 4) != 2 || d.At(4, 4) != 3 || d.At(8, 0) != 4 {
		t.Fatalf("block placement wrong")
	}
	if d.At(4, 0) != 0 {
		t.Fatal("absent block should be zero")
	}
}

func TestBSRRejectsBadShapes(t *testing.T) {
	if _, err := NewBSR(10, 8, 4, nil); err == nil {
		t.Fatal("expected error: rows not divisible by block size")
	}
	if _, err := NewBSR(8, 8, 0, nil); err == nil {
		t.Fatal("expected error: zero block size")
	}
	if _, err := NewBSR(8, 8, 4, [][2]int{{0, 0}, {0, 0}}); err == nil {
		t.Fatal("expected error: duplicate block")
	}
	if _, err := NewBSR(8, 8, 4, [][2]int{{5, 0}}); err == nil {
		t.Fatal("expected error: block out of grid")
	}
}

func TestBSRMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pattern := [][2]int{{0, 0}, {1, 2}, {2, 1}, {3, 3}, {0, 3}}
	b, err := NewBSR(16, 16, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Blocks {
		b.Blocks[i] = rng.Float32()*2 - 1
	}
	x := tensor.New(16, 7)
	x.FillRandom(rng, 1)
	want := tensor.MatMul(b.ToDense(), x)
	got := b.MulDense(x)
	if !tensor.AlmostEqual(want, got, 1e-4) {
		t.Fatalf("BSR MulDense mismatch: %v", tensor.MaxAbsDiff(want, got))
	}
	wantT := tensor.MatMul(b.ToDense().Transpose(), tensor.FromSlice(16, 7, x.Data))
	gotT := b.TransposeMulDense(x)
	if !tensor.AlmostEqual(wantT, gotT, 1e-4) {
		t.Fatalf("BSR TransposeMulDense mismatch: %v", tensor.MaxAbsDiff(wantT, gotT))
	}
}

func TestBSRAccumulateOuterMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pattern := [][2]int{{0, 1}, {1, 0}}
	b, err := NewBSR(8, 8, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	dY := tensor.New(8, 5)
	dY.FillRandom(rng, 1)
	x := tensor.New(5, 8) // batch-major
	x.FillRandom(rng, 1)
	b.AccumulateOuter(dY, x, 1)
	// Dense gradient masked to the stored blocks.
	full := tensor.MatMul(dY, x)
	dense := b.ToDense()
	for bi := 0; bi < 2; bi++ {
		for bj := 0; bj < 2; bj++ {
			_, stored := b.BlockAt(bi, bj)
			for r := 0; r < 4; r++ {
				for c := 0; c < 4; c++ {
					want := float32(0)
					if stored {
						want = full.At(bi*4+r, bj*4+c)
					}
					got := dense.At(bi*4+r, bj*4+c)
					if diff := float64(want - got); diff > 1e-4 || diff < -1e-4 {
						t.Fatalf("block (%d,%d) entry (%d,%d): got %v want %v", bi, bj, r, c, got, want)
					}
				}
			}
		}
	}
}

func TestBSRFlops(t *testing.T) {
	b, err := NewBSR(8, 8, 4, [][2]int{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Flops(3); got != 2*2*16*3 {
		t.Fatalf("Flops = %v, want %v", got, 2*2*16*3)
	}
}

func TestBSRMulDenseRowsIntoMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pattern := [][2]int{{0, 0}, {0, 2}, {1, 1}, {2, 0}, {2, 3}, {3, 3}}
	b, err := NewBSR(16, 16, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Blocks {
		b.Blocks[i] = rng.Float32()*2 - 1
	}
	// k = 5 takes the batch-tiled kernel, k = 1 the one-column one.
	for _, k := range []int{5, 1} {
		x := tensor.New(16, k)
		x.FillRandom(rng, 1)
		full := b.MulDense(x)

		for _, window := range [][2]int{{0, 4}, {0, 2}, {2, 4}, {1, 3}} {
			br0, br1 := window[0], window[1]
			out := tensor.New((br1-br0)*b.BlockSize, x.Cols)
			b.MulDenseRowsInto(out, x, br0, br1)
			for r := 0; r < out.Rows; r++ {
				for c := 0; c < out.Cols; c++ {
					if out.At(r, c) != full.At(br0*b.BlockSize+r, c) {
						t.Fatalf("k=%d window [%d,%d): (%d,%d) = %v, want %v (not bit-for-bit)",
							k, br0, br1, r, c, out.At(r, c), full.At(br0*b.BlockSize+r, c))
					}
				}
			}
		}
	}
}

func TestBSRMulDenseRowsIntoPanics(t *testing.T) {
	b, err := NewBSR(8, 8, 4, [][2]int{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(8, 2)
	for name, fn := range map[string]func(){
		"bad window":   func() { b.MulDenseRowsInto(tensor.New(4, 2), x, 1, 3) },
		"bad dst rows": func() { b.MulDenseRowsInto(tensor.New(8, 2), x, 0, 1) },
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

// TestBSRMulDenseBiasActMatchesUnfused pins the fused block-sparse
// epilogue of MulDenseInto (pixelfly's fused final stage without a
// low-rank term) to the unfused MulDense + bias broadcast + activation
// chain, bit-for-bit.
func TestBSRMulDenseBiasActMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pattern := [][2]int{{0, 0}, {0, 2}, {1, 1}, {2, 3}, {3, 0}, {3, 3}}
	b, err := NewBSR(16, 16, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Blocks {
		b.Blocks[i] = rng.Float32()*2 - 1
	}
	x := tensor.New(16, 5)
	x.FillRandom(rng, 1)
	bias := make([]float32, 16)
	for i := range bias {
		bias[i] = rng.Float32()*2 - 1
	}

	want := b.MulDense(x)
	for i := 0; i < want.Rows; i++ {
		row := want.Row(i)
		for j, v := range row {
			v += bias[i]
			if !(v > 0) {
				v = 0
			}
			row[j] = v
		}
	}
	got := tensor.New(16, 5)
	b.MulDenseInto(got, x, bias, tensor.ActReLU)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("element %d differs: %g vs %g", i, want.Data[i], got.Data[i])
		}
	}

	// nil bias, no activation degenerates to MulDense exactly.
	plain := tensor.New(16, 5)
	b.MulDenseInto(plain, x, nil, tensor.ActNone)
	ref := b.MulDense(x)
	for i := range ref.Data {
		if ref.Data[i] != plain.Data[i] {
			t.Fatalf("nil-epilogue element %d differs", i)
		}
	}
}
