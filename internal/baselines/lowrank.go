// Package baselines implements the structured-matrix methods Table 4
// compares butterfly against: LowRank (U·Vᵀ), Circulant (FFT circular
// convolution) and Fastfood (S·H·G·Π·H·B). Each exposes the same
// Forward/Backward/Params protocol as the butterfly and pixelfly layers so
// the SHL benchmark treats all methods uniformly.
package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// LowRank is the rank-r factorization W = U·Vᵀ of an n×n weight.
// With r=1 and n=1024 the SHL totals 13,322 parameters, matching Table 4.
type LowRank struct {
	N, Rank      int
	U, V         *tensor.Matrix // n×r
	GradU, GradV *tensor.Matrix // nil until Backward or Params

	// ut caches Uᵀ (r×n) for the allocation-free inference path; it is
	// re-derived by Refresh after every optimizer step (the same post-step
	// hook the rotation butterfly uses).
	ut *tensor.Matrix

	xSaved  *tensor.Matrix
	xvSaved *tensor.Matrix
}

// LowRankFlops is the one shared FLOP formula for a factorized rank-r
// product of an in×out weight over a batch: the in×r and r×out factor
// multiplies cost 2·batch·r·in + 2·batch·r·out. Both this package's
// LowRank and the post-hoc factorized layers of internal/factorize /
// internal/nn report their FLOPs through it so the benchmarks stay
// consistent.
func LowRankFlops(in, out, rank, batch int) float64 {
	return 2 * float64(batch) * float64(rank) * (float64(in) + float64(out))
}

// NewLowRank builds a random low-rank layer.
func NewLowRank(n, rank int, rng *rand.Rand) *LowRank {
	if rank <= 0 || rank > n {
		panic(fmt.Sprintf("baselines: rank %d out of range (0,%d]", rank, n))
	}
	l := &LowRank{N: n, Rank: rank, U: tensor.New(n, rank), V: tensor.New(n, rank)}
	// n^(-1/4) per factor so the product U·Vᵀ has dense-equivalent
	// n^(-1/2) entries; a 1/√n per-factor init would shrink the product
	// (and its gradients) by another 1/√n and stall training.
	scale := float32(1 / math.Pow(float64(n), 0.25))
	l.U.FillRandom(rng, scale)
	l.V.FillRandom(rng, scale)
	l.Refresh()
	return l
}

// Refresh re-derives the cached Uᵀ after an optimizer step mutates U.
func (l *LowRank) Refresh() {
	if l.ut == nil {
		l.ut = tensor.New(l.Rank, l.N)
	}
	tensor.TransposeInto(l.ut, l.U)
}

// NewLowRankFromFactors wraps explicit factors U, V (both n×r) so that the
// layer applies W = V·Uᵀ to row vectors: Y = (X·V)·Uᵀ. This is the entry
// point internal/factorize uses to turn a truncated SVD of a trained dense
// weight into a servable layer.
func NewLowRankFromFactors(u, v *tensor.Matrix) *LowRank {
	if u.Rows != v.Rows || u.Cols != v.Cols {
		panic(fmt.Sprintf("baselines: factor shapes %dx%d vs %dx%d differ",
			u.Rows, u.Cols, v.Rows, v.Cols))
	}
	if u.Cols <= 0 || u.Cols > u.Rows {
		panic(fmt.Sprintf("baselines: rank %d out of range (0,%d]", u.Cols, u.Rows))
	}
	n, rank := u.Rows, u.Cols
	l := &LowRank{N: n, Rank: rank, U: u.Clone(), V: v.Clone()}
	l.Refresh()
	return l
}

// ParamCount returns 2·n·rank.
func (l *LowRank) ParamCount() int { return 2 * l.N * l.Rank }

// Flops returns forward flops over a batch via the shared LowRankFlops
// formula (2·batch·r·n per factor).
func (l *LowRank) Flops(batch int) float64 {
	return LowRankFlops(l.N, l.N, l.Rank, batch)
}

// Forward computes Y = (X·V)·Uᵀ so that y_row = U·Vᵀ·x_row.
func (l *LowRank) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.N {
		panic(fmt.Sprintf("baselines: LowRank input width %d != %d", x.Cols, l.N))
	}
	l.xSaved = x
	l.xvSaved = tensor.MatMul(x, l.V)
	return tensor.MatMul(l.xvSaved, l.U.Transpose())
}

// Apply is Forward without retaining state. It writes no receiver fields,
// so any number of goroutines may share one LowRank for inference.
func (l *LowRank) Apply(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.N {
		panic(fmt.Sprintf("baselines: LowRank input width %d != %d", x.Cols, l.N))
	}
	return tensor.MatMul(tensor.MatMul(x, l.V), l.U.Transpose())
}

// ApplyInto is Apply writing into caller-owned dst (shape x.Rows×N, fully
// overwritten), with the bias add and activation folded into the wide
// back-projection through Uᵀ: it is ApplyColsInto's window [0, N). Same
// kernels as Apply: bit-for-bit act(Apply(x) + bias). bias may be nil; a
// nil bias with ActNone is the plain product. dst must not alias x.
func (l *LowRank) ApplyInto(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation) {
	l.ApplyColsInto(dst, x, ws, 0, l.N, bias, act)
}

// ApplyColsInto writes columns [lo, hi) of act(Apply(x) + bias) into the
// same columns of dst (shape x.Rows×N; the other columns are untouched),
// the window one tensor-parallel shard computes: it stages X·V (rows×r)
// through the workspace and back-projects it through the window of the
// cached Uᵀ, read in place through its row stride, with the bias
// (window-relative, may be nil) and activation folded into each finished
// row. Every element runs Apply's chain, so windows assembled across
// shards are bit for bit the full product. dst must not alias x.
func (l *LowRank) ApplyColsInto(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int, bias []float32, act tensor.Activation) {
	if x.Cols != l.N {
		panic(fmt.Sprintf("baselines: LowRank input width %d != %d", x.Cols, l.N))
	}
	if dst.Rows != x.Rows || dst.Cols != l.N {
		panic(fmt.Sprintf("baselines: LowRank ApplyInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, l.N))
	}
	xv := ws.Take(x.Rows, l.Rank)
	tensor.MatMulInto(xv, x, l.V)
	tensor.MatMulColsBiasActInto(dst, lo, xv, l.ut, lo, hi, bias, act)
}

// Scratch is ApplyInto's workspace demand at rows rows: its window's.
func (l *LowRank) Scratch(rows int) tensor.Scratch { return l.ColsScratch(rows, l.N) }

// ColsScratch is ApplyColsInto's workspace demand for a window of cols
// columns at rows rows: the rows×rank product X·V, whatever the window.
func (l *LowRank) ColsScratch(rows, cols int) tensor.Scratch {
	return tensor.Scratch{Floats: rows * l.Rank, Headers: 1}
}

// ColsAlign is the multiple ApplyColsInto's window bounds fall on: any
// column.
func (l *LowRank) ColsAlign() int { return 1 }

// ColsShared is what every window of ApplyColsInto repeats whatever its
// columns: V's bytes and the per-row flops of X·V.
func (l *LowRank) ColsShared() (bytes int, flopsPerRow int64) {
	return 4 * l.N * l.Rank, int64(2 * l.N * l.Rank)
}

// Backward accumulates dU, dV and returns dX.
func (l *LowRank) Backward(dY *tensor.Matrix) *tensor.Matrix {
	if l.xSaved == nil {
		panic("baselines: LowRank Backward before Forward")
	}
	l.ensureGrads()
	dyU := tensor.MatMul(dY, l.U)
	tensor.AddInPlace(l.GradU, tensor.MatMul(dY.Transpose(), l.xvSaved))
	tensor.AddInPlace(l.GradV, tensor.MatMul(l.xSaved.Transpose(), dyU))
	return tensor.MatMul(dyU, l.V.Transpose())
}

// ZeroGrad clears gradients.
func (l *LowRank) ZeroGrad() {
	if l.GradU == nil {
		return
	}
	l.GradU.Zero()
	l.GradV.Zero()
}

// ensureGrads allocates the gradients on first use.
func (l *LowRank) ensureGrads() {
	if l.GradU == nil {
		l.GradU, l.GradV = tensor.New(l.N, l.Rank), tensor.New(l.N, l.Rank)
	}
}

// Params returns (parameter, gradient) slice pairs.
func (l *LowRank) Params() (params, grads [][]float32) {
	l.ensureGrads()
	return [][]float32{l.U.Data, l.V.Data}, [][]float32{l.GradU.Data, l.GradV.Data}
}

// Dense materializes U·Vᵀ.
func (l *LowRank) Dense() *tensor.Matrix { return tensor.MatMul(l.U, l.V.Transpose()) }
