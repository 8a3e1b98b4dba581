package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// refTransposeMulDense is the plain bᵀ·x loop over feature-major x
// (Rows×K), in RowPtr order: the oracle for InputGradInto, which computes
// its transpose batch-major.
func refTransposeMulDense(b *BSR, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(b.Cols, x.Cols)
	bs, k := b.BlockSize, x.Cols
	for bi := 0; bi < b.BlockRows; bi++ {
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			bj := int(b.ColIdx[p])
			blk := b.Block(int(p))
			for r := 0; r < bs; r++ {
				xrow := x.Data[(bi*bs+r)*k : (bi*bs+r+1)*k]
				for c := 0; c < bs; c++ {
					v := blk[c*bs+r]
					if v == 0 {
						continue
					}
					orow := out.Row(bj*bs + c)
					for j := 0; j < k; j++ {
						orow[j] += v * xrow[j]
					}
				}
			}
		}
	}
	return out
}

// refAccumulateOuter is the one-dot-product-at-a-time loop — the oracle
// for the row-split AccumulateOuter. It takes dY (Rows×K) and x (Cols×K)
// feature-major, the transposes of what AccumulateOuter takes, so every
// entry's dot product reads two contiguous rows.
func refAccumulateOuter(b *BSR, dY, x *tensor.Matrix, lr float32) {
	bs, k := b.BlockSize, dY.Cols
	for bi := 0; bi < b.BlockRows; bi++ {
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			bj := int(b.ColIdx[p])
			blk := b.Block(int(p))
			for r := 0; r < bs; r++ {
				dyrow := dY.Data[(bi*bs+r)*k : (bi*bs+r+1)*k]
				for c := 0; c < bs; c++ {
					xrow := x.Data[(bj*bs+c)*k : (bj*bs+c+1)*k]
					var s float32
					for j := 0; j < k; j++ {
						s += dyrow[j] * xrow[j]
					}
					blk[c*bs+r] += lr * s
				}
			}
		}
	}
}

// holeyBSR is randomBSR's fill on a pattern whose block row 1 and block
// column 2 store no blocks, so the split kernels meet empty ranges.
func holeyBSR(t testing.TB, rng *rand.Rand, br, bc, bs int) *BSR {
	t.Helper()
	var pattern [][2]int
	for i := 0; i < br; i++ {
		for j := 0; j < bc; j++ {
			if i != 1 && j != 2 && rng.Float64() < 0.4 {
				pattern = append(pattern, [2]int{i, j})
			}
		}
	}
	b, err := NewBSR(br*bs, bc*bs, bs, pattern)
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

func randDense(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// TestTrainingKernelsMatchOracles compares the three batch-major kernels
// with their plain-loop oracles by ==, at GOMAXPROCS 1 and 4, across
// block sizes 4, 8, 6 (AccRow's masked tail), the paper's 64, and 72,
// whose gradient columns AccumulateOuter sums in two chunks. The forward
// product is split across block rows as pixelfly's training Forward
// splits it.
func TestTrainingKernelsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fanned := 0
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, bs := range []int{4, 8, 64, 6, 72} {
			for _, k := range []int{1, 3, 50} {
				b := holeyBSR(t, rng, 18, 14, bs)
				if procs > 1 && b.macs(k) >= 1<<16 {
					fanned++
				}
				tag := fmt.Sprintf("procs=%d bs=%d k=%d", procs, bs, k)

				x := randDense(rng, k, b.Cols)
				y := tensor.New(k, b.Rows)
				b.mulParallel(y, x)
				assertSameMat(t, tag+" MulInto", b.MulDense(x.Transpose()).Transpose(), y)

				dY := randDense(rng, k, b.Rows)
				rowMajor := make([]float32, len(b.Blocks))
				b.TransposeBlocks(rowMajor)
				dX := randDense(rng, k, b.Cols) // overwritten
				b.InputGradInto(dX, dY, rowMajor)
				assertSameMat(t, tag+" InputGradInto", refTransposeMulDense(b, dY.Transpose()).Transpose(), dX)

				want := holeyBSR(t, rand.New(rand.NewSource(int64(bs))), 18, 14, bs)
				got := holeyBSR(t, rand.New(rand.NewSource(int64(bs))), 18, 14, bs)
				for _, lr := range []float32{1, 0.37} {
					dY := randDense(rng, k, b.Rows)
					refAccumulateOuter(want, dY.Transpose(), x.Transpose(), lr)
					got.AccumulateOuter(dY, x, lr)
				}
				for i := range want.Blocks {
					if want.Blocks[i] != got.Blocks[i] {
						t.Fatalf("%s AccumulateOuter: block value %d = %v, want %v", tag, i, got.Blocks[i], want.Blocks[i])
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if fanned == 0 {
		t.Fatal("no case crossed the serial cutoff, so the fan-out went untested")
	}
}

// mulParallel runs MulInto over every block row of b into y, the block
// rows split across GOMAXPROCS as pixelfly's training Forward splits
// them.
func (b *BSR) mulParallel(y, x *tensor.Matrix) {
	tensor.ParallelRows(b.BlockRows, b.macs(x.Rows), [2]*tensor.Matrix{y, x}, func(m [2]*tensor.Matrix, lo, hi int) {
		b.MulInto(m[0], lo*b.BlockSize, m[1], lo, hi, nil, tensor.ActNone)
	})
}

// BlockAt returns (blockIndex, true) if block (bi, bj) is stored.
func (b *BSR) BlockAt(bi, bj int) (int, bool) {
	for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
		if int(b.ColIdx[p]) == bj {
			return int(p), true
		}
	}
	return 0, false
}

// pixelflyPattern is the paper pixelfly support at N=1024 for block size
// bs: a 16-node butterfly network stretched over the (1024/bs)-wide block
// grid, so each block row stores the blocks of its node's diagonal and
// of the nodes at XOR distance 1, 2, 4 and 8 (80 blocks at bs 64, the
// same 1.25 MiB of values at every block size).
func pixelflyPattern(bs int) [][2]int {
	nb := 1024 / bs
	var pattern [][2]int
	for i := 0; i < nb; i++ {
		a := i * 16 / nb
		for _, node := range []int{a, a ^ 1, a ^ 2, a ^ 4, a ^ 8} {
			for j := node * nb / 16; j < (node+1)*nb/16; j++ {
				pattern = append(pattern, [2]int{i, j})
			}
		}
	}
	return pattern
}

// BenchmarkBSRTrainKernels times the three training kernels against their
// oracles at the pixelfly training shape: N 1024, batch 50, the paper's
// block size 64 and the small blocks 8 and 4. The kernels' side takes
// its operands batch-major and the oracles' feature-major, each as it
// reads them.
func BenchmarkBSRTrainKernels(b *testing.B) {
	for _, bs := range []int{64, 8, 4} {
		rng := rand.New(rand.NewSource(43))
		m, err := NewBSR(1024, 1024, bs, pixelflyPattern(bs))
		if err != nil {
			b.Fatal(err)
		}
		for i := range m.Blocks {
			m.Blocks[i] = rng.Float32()*2 - 1
		}
		x := randDense(rng, 1024, 50)
		dY := randDense(rng, 1024, 50)
		xb, dYb := x.Transpose(), dY.Transpose() // batch-major, as the kernels take them
		y, dX := tensor.New(50, 1024), tensor.New(50, 1024)
		rowMajor := make([]float32, len(m.Blocks))
		flops := int64(m.Flops(50))
		for _, bc := range []struct {
			name string
			run  func()
		}{
			{"MulDense/ref", func() { m.MulDense(x) }},
			{"MulDense/new", func() { m.mulParallel(y, xb) }},
			{"TransposeMulDense/ref", func() { refTransposeMulDense(m, dY) }},
			{"TransposeMulDense/new", func() { m.InputGradInto(dX, dYb, rowMajor) }},
			{"TransposeBlocks", func() { m.TransposeBlocks(rowMajor) }},
			{"AccumulateOuter/ref", func() { refAccumulateOuter(m, dY, x, 1e-9) }},
			{"AccumulateOuter/new", func() { m.AccumulateOuter(dYb, xb, 1e-9) }},
		} {
			b.Run(fmt.Sprintf("bs%d/%s", bs, bc.name), func(b *testing.B) {
				b.SetBytes(flops)
				for i := 0; i < b.N; i++ {
					bc.run()
				}
			})
		}
	}
}
