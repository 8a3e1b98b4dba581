package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// sameBits reports whether two float32s are the same bits, counting any
// NaN as every NaN: the product of two NaNs keeps one operand's payload,
// and which one depends on operand order, which the kernels and oracles
// need not share.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// guardBits fills the columns around a window; no kernel may write them.
const guardBits = 0x7fc0beef

// FuzzBSRProducts holds the three batch-major kernels to their plain-loop
// oracles bit for bit (NaN for NaN) on random block sizes (1–72), random
// block grids of up to 4×4 that may leave a block row and a block column
// empty, 0–70 samples, random block-row windows with bias and ReLU, and
// x and dY that start with the fuzzer's float32 bits (IEEE edge values
// in the seeds: ±0, subnormals, ±Inf, NaN of both signs, the largest
// finite values):
//   - MulInto over every block row, against MulDense on xᵀ;
//   - MulInto over a window of block rows into a dst with guard columns
//     on both sides, against MulDense's window plus a separate bias and
//     ReLU sweep; every guard cell must keep its bits;
//   - InputGradInto over TransposeBlocks' copy, against
//     refTransposeMulDense on dYᵀ;
//   - AccumulateOuter, against refAccumulateOuter on dYᵀ and xᵀ.
//
// Stored entries are drawn nonzero, as a trained layer's are: MulDense
// and refTransposeMulDense skip a zero entry, the kernels multiply it,
// and 0·Inf is NaN. With finite inputs the skip changes no bit, which
// TestMulDenseMicroMatchesReference and TestTrainingKernelsMatchOracles
// check on blocks that hold zeros.
func FuzzBSRProducts(f *testing.F) {
	nan := float32(math.NaN())
	edges := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), float32(math.Inf(1)), float32(math.Inf(-1)),
		nan, -nan, math.MaxFloat32, -math.MaxFloat32, 1, -0.5}
	var vals []byte
	for _, v := range edges {
		vals = binary.LittleEndian.AppendUint32(vals, math.Float32bits(v))
	}
	for i, s := range []struct{ bs, grid, rows uint8 }{
		{63, 0x33, 0}, {63, 0x33, 1}, {0, 0x22, 7}, {3, 0x13, 50}, {7, 0x31, 64}, {71, 0x11, 70}, {5, 0x32, 3},
	} {
		f.Add(s.bs, s.grid, s.rows, uint8(i), uint8(i+1), uint8(37*i), int64(i), vals)
	}
	f.Fuzz(func(t *testing.T, bs8, grid, rows8, w0, w1, flags uint8, seed int64, vals []byte) {
		bs := 1 + int(bs8)%72
		br, bc := 1+int(grid&15)%4, 1+int(grid>>4)%4
		rows := int(rows8) % 71
		rng := rand.New(rand.NewSource(seed))
		emptyRow, emptyCol := rng.Intn(br+1), rng.Intn(bc+1) // br or bc: none
		var pattern [][2]int
		for i := 0; i < br; i++ {
			for j := 0; j < bc; j++ {
				if i != emptyRow && j != emptyCol && rng.Intn(3) > 0 {
					pattern = append(pattern, [2]int{i, j})
				}
			}
		}
		b, err := NewBSR(br*bs, bc*bs, bs, pattern)
		if err != nil {
			t.Fatal(err)
		}
		nonzero := func() float32 {
			if v := rng.Float32()*2 - 1; v != 0 {
				return v
			}
			return 0.5
		}
		for i := range b.Blocks {
			b.Blocks[i] = nonzero()
		}
		x, dY := randDense(rng, rows, b.Cols), randDense(rng, rows, b.Rows)
		for i := 0; 4*i+4 <= len(vals); i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(vals[4*i:]))
			if i < len(x.Data) {
				x.Data[i] = v
			}
			if i < len(dY.Data) {
				dY.Data[len(dY.Data)-1-i] = v
			}
		}
		same := func(what string, want, got []float32) {
			t.Helper()
			for i := range want {
				if !sameBits(want[i], got[i]) {
					t.Fatalf("bs=%d grid %dx%d rows=%d %s[%d] = %v (%#x), want %v (%#x)", bs, br, bc, rows, what, i,
						got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}

		ref := b.MulDense(x.Transpose()).Transpose()
		y := tensor.New(rows, b.Rows)
		b.MulInto(y, 0, x, 0, b.BlockRows, nil, tensor.ActNone)
		same("MulInto", ref.Data, y.Data)

		br0 := int(w0) % (br + 1)
		br1 := br0 + int(w1)%(br-br0+1)
		w := (br1 - br0) * bs
		guard := 1 + int(flags>>2)%9
		var bias []float32
		if flags&1 != 0 {
			bias = make([]float32, w)
			for i := range bias {
				bias[i] = rng.Float32()*2 - 1
			}
		}
		act := tensor.ActNone
		if flags&2 != 0 {
			act = tensor.ActReLU
		}
		win := tensor.New(rows, w+2*guard)
		for i := range win.Data {
			win.Data[i] = math.Float32frombits(guardBits)
		}
		b.MulInto(win, guard, x, br0, br1, bias, act)
		for s := 0; s < rows; s++ {
			for c, v := range win.Row(s) {
				if c < guard || c >= guard+w {
					if math.Float32bits(v) != guardBits {
						t.Fatalf("bs=%d grid %dx%d rows=%d window [%d,%d): guard cell (%d,%d) = %#x", bs, br, bc, rows, br0, br1, s, c, math.Float32bits(v))
					}
					continue
				}
				want := ref.At(s, br0*bs+c-guard)
				if bias != nil {
					want += bias[c-guard]
				}
				if act == tensor.ActReLU && !(want > 0) {
					want = 0
				}
				if !sameBits(want, v) {
					t.Fatalf("bs=%d grid %dx%d rows=%d window [%d,%d) bias=%t %v: (%d,%d) = %v (%#x), want %v (%#x)", bs, br, bc, rows,
						br0, br1, bias != nil, act, s, c, v, math.Float32bits(v), want, math.Float32bits(want))
				}
			}
		}

		rowMajor := make([]float32, len(b.Blocks))
		b.TransposeBlocks(rowMajor)
		dX := randDense(rng, rows, b.Cols) // overwritten
		b.InputGradInto(dX, dY, rowMajor)
		same("InputGradInto", refTransposeMulDense(b, dY.Transpose()).Transpose().Data, dX.Data)

		lr := []float32{1, 0.37, -2}[int(flags>>6)%3]
		wantW, gotW := *b, *b
		wantW.Blocks = append([]float32(nil), b.Blocks...)
		gotW.Blocks = append([]float32(nil), b.Blocks...)
		refAccumulateOuter(&wantW, dY.Transpose(), x.Transpose(), lr)
		gotW.AccumulateOuter(dY, x, lr)
		same("AccumulateOuter", wantW.Blocks, gotW.Blocks)
	})
}
