package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// refTransposeMulDense is the plain row-major bᵀ·x loop — the oracle for
// the tiled, column-split TransposeMulDense.
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
					v := blk[r*bs+c]
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
// for the row-split AccumulateOuter. It takes x feature-major (Cols×K),
// the transpose of what AccumulateOuter takes, so every entry's dot
// product reads two contiguous rows.
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
					blk[r*bs+c] += lr * s
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

// TestTrainingKernelsMatchOracles compares the three training kernels with
// their plain-loop oracles by ==, at GOMAXPROCS 1 and 4, across block
// sizes covering the 4/8 unrolls, the row-accumulate path at 6 and the
// paper's 64, and 72, whose gradient rows AccumulateOuter sums in two
// chunks.
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

				x := randDense(rng, b.Cols, k)
				assertSameMat(t, tag+" MulDenseParallel", b.MulDense(x), b.MulDenseParallel(x))

				y := randDense(rng, b.Rows, k)
				assertSameMat(t, tag+" TransposeMulDense", refTransposeMulDense(b, y), b.TransposeMulDense(y))

				want := holeyBSR(t, rand.New(rand.NewSource(int64(bs))), 18, 14, bs)
				got := holeyBSR(t, rand.New(rand.NewSource(int64(bs))), 18, 14, bs)
				for _, lr := range []float32{1, 0.37} {
					dY := randDense(rng, b.Rows, k)
					refAccumulateOuter(want, dY, x, lr)
					got.AccumulateOuter(dY, x.Transpose(), lr)
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

// BlockAt returns (blockIndex, true) if block (bi, bj) is stored.
func (b *BSR) BlockAt(bi, bj int) (int, bool) {
	for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
		if int(b.ColIdx[p]) == bj {
			return int(p), true
		}
	}
	return 0, false
}

// TestColumnIndexListsEveryBlock checks NewBSR's column index against the
// row index: every stored block once, under its column, by ascending
// block row.
func TestColumnIndexListsEveryBlock(t *testing.T) {
	b := holeyBSR(t, rand.New(rand.NewSource(42)), 9, 7, 2)
	seen := make([]bool, b.NumBlocks())
	for bj := 0; bj < b.BlockCols; bj++ {
		last := -1
		for q := b.colPtr[bj]; q < b.colPtr[bj+1]; q++ {
			bi, p := int(b.colRow[q]), int(b.colBlk[q])
			if bi <= last {
				t.Fatalf("column %d: block row %d after %d", bj, bi, last)
			}
			last = bi
			if got, ok := b.BlockAt(bi, bj); !ok || got != p || seen[p] {
				t.Fatalf("column %d: entry (%d, block %d) disagrees with the row index", bj, bi, p)
			}
			seen[p] = true
		}
	}
	for p, ok := range seen {
		if !ok {
			t.Fatalf("block %d missing from the column index", p)
		}
	}
}

// pixelflyPattern is the paper pixelfly support at N=1024: block size 64,
// a 16-node butterfly network, so each of the 16 block rows stores its
// diagonal block and the blocks at XOR distance 1, 2, 4 and 8 (80 blocks).
func pixelflyPattern() [][2]int {
	var pattern [][2]int
	for i := 0; i < 16; i++ {
		for _, j := range []int{i, i ^ 1, i ^ 2, i ^ 4, i ^ 8} {
			pattern = append(pattern, [2]int{i, j})
		}
	}
	return pattern
}

// BenchmarkBSRTrainKernels times the three training kernels against their
// oracles at the pixelfly training shape: N 1024, block size 64, 80
// blocks, batch 50.
func BenchmarkBSRTrainKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	m, err := NewBSR(1024, 1024, 64, pixelflyPattern())
	if err != nil {
		b.Fatal(err)
	}
	for i := range m.Blocks {
		m.Blocks[i] = rng.Float32()*2 - 1
	}
	x := randDense(rng, 1024, 50)
	xb := x.Transpose() // batch-major, as AccumulateOuter takes it
	dY := randDense(rng, 1024, 50)
	flops := int64(m.Flops(50))
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"MulDense/ref", func() { m.MulDense(x) }},
		{"MulDense/new", func() { m.MulDenseParallel(x) }},
		{"TransposeMulDense/ref", func() { refTransposeMulDense(m, dY) }},
		{"TransposeMulDense/new", func() { m.TransposeMulDense(dY) }},
		{"AccumulateOuter/ref", func() { refAccumulateOuter(m, dY, x, 1e-9) }},
		{"AccumulateOuter/new", func() { m.AccumulateOuter(dY, xb, 1e-9) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}
