package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// randomBSR builds a BSR with each block present with probability
// density, guaranteeing at least one block per block row so the product
// exercises every output row, then fills stored blocks with random
// values (including a sprinkle of exact zeros to cover the reference
// kernel's skip branch that the micro kernels drop).
func randomBSR(t testing.TB, rng *rand.Rand, rows, cols, bs int, density float64) *BSR {
	t.Helper()
	br, bc := rows/bs, cols/bs
	var pattern [][2]int
	for i := 0; i < br; i++ {
		placed := false
		for j := 0; j < bc; j++ {
			if rng.Float64() < density {
				pattern = append(pattern, [2]int{i, j})
				placed = true
			}
		}
		if !placed {
			pattern = append(pattern, [2]int{i, rng.Intn(bc)})
		}
	}
	b, err := NewBSR(rows, cols, bs, pattern)
	if err != nil {
		t.Fatalf("NewBSR: %v", err)
	}
	for i := range b.Blocks {
		b.Blocks[i] = rng.Float32()*2 - 1
	}
	for z := 0; z < len(b.Blocks)/7; z++ {
		b.Blocks[rng.Intn(len(b.Blocks))] = 0
	}
	return b
}

// TestMulDenseMicroMatchesReference demands float equality between the
// batch-major forward kernel MulInto and the reference loop in MulDense
// (on the transposed input) followed by a separate bias and activation
// sweep, across block sizes from 1 to the served 64, and sample counts
// covering a one-row batch and AccRow's column splits, with and without
// bias, under both activations. The blocks hold exact zeros, which
// MulDense skips and MulInto multiplies.
func TestMulDenseMicroMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, bs := range []int{1, 2, 3, 4, 5, 6, 8, 16, 64} {
		for _, k := range []int{1, 3, 17} {
			rows, cols := 6*bs, 5*bs
			b := randomBSR(t, rng, rows, cols, bs, 0.4)
			x := randDense(rng, k, cols)
			bias := make([]float32, rows)
			for i := range bias {
				bias[i] = rng.Float32()*2 - 1
			}
			got := tensor.New(k, rows)
			for _, bv := range [][]float32{nil, bias} {
				for _, act := range []tensor.Activation{tensor.ActNone, tensor.ActReLU} {
					want := b.MulDense(x.Transpose()).Transpose()
					tensor.ApplyBiasActInto(want, want, bv, act)
					b.MulInto(got, 0, x, 0, b.BlockRows, bv, act)
					assertSameMat(t, fmt.Sprintf("bs=%d k=%d bias=%t/%v", bs, k, bv != nil, act), want, got)
				}
			}
		}
	}
}

func assertSameMat(t *testing.T, op string, want, got *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: data[%d] = %v, want %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

// BenchmarkBSRMulDense compares the reference product (MulDense, the
// oracle, which allocates its output and takes the input feature-major)
// against the batch-major kernel MulInto at serving-realistic shapes:
// pixelated butterfly weights at width 1024, one sample (the batch
// serving mostly runs) and 16, at the served block size 64 and smaller.
func BenchmarkBSRMulDense(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	for _, bs := range []int{4, 8, 16, 64} {
		for _, k := range []int{1, 16} {
			n := 1024
			m := randomBSR(b, rng, n, n, bs, 0.1)
			x := randDense(rng, n, k)
			xb := x.Transpose()
			out := tensor.New(k, n)
			flops := int64(2*bs*bs*k) * int64(m.NumBlocks())
			b.Run(fmt.Sprintf("ref/bs%dk%d", bs, k), func(b *testing.B) {
				b.SetBytes(flops)
				for i := 0; i < b.N; i++ {
					m.MulDense(x)
				}
			})
			b.Run(fmt.Sprintf("micro/bs%dk%d", bs, k), func(b *testing.B) {
				b.SetBytes(flops)
				for i := 0; i < b.N; i++ {
					m.MulInto(out, 0, xb, 0, m.BlockRows, nil, tensor.ActNone)
				}
			})
		}
	}
}
