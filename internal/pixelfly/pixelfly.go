// Package pixelfly implements the Pixelated Butterfly layer (Chen et al.,
// 2021) as the paper uses it: a *flat block butterfly* — the butterfly
// product approximated by a sum with a residual connection, block-aligned
// to a b×b block grid — plus an additive low-rank term U·Vᵀ.
//
// The layer has the paper's three tunable knobs (Section 5's sweep):
//
//   - ButterflySize: size of the virtual butterfly network whose
//     connectivity decides which blocks exist,
//   - BlockSize: edge length of the dense blocks (GPU-alignment knob),
//   - LowRank: width of the additive low-rank term.
//
// The block support is the union of the butterfly graph's stage
// connections (i ↔ i XOR 2^(s-1)) plus the diagonal, stretched or squeezed
// onto the (N/BlockSize)² block grid.
package pixelfly

import (
	"fmt"
	"math/rand"

	"repro/internal/fft"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Config selects the pixelfly hyperparameters for an N×N layer.
type Config struct {
	N             int // layer dimension (power of two)
	BlockSize     int // dense block edge (power of two dividing N)
	ButterflySize int // virtual butterfly network size (power of two)
	LowRank       int // width of the low-rank term (0 disables it)
}

// Validate returns an error when the configuration is inconsistent.
func (c Config) Validate() error {
	if !fft.IsPowerOfTwo(c.N) {
		return fmt.Errorf("pixelfly: N=%d not a power of two", c.N)
	}
	if !fft.IsPowerOfTwo(c.BlockSize) || c.N%c.BlockSize != 0 {
		return fmt.Errorf("pixelfly: block size %d must be a power of two dividing N=%d", c.BlockSize, c.N)
	}
	if !fft.IsPowerOfTwo(c.ButterflySize) {
		return fmt.Errorf("pixelfly: butterfly size %d not a power of two", c.ButterflySize)
	}
	if c.LowRank < 0 || c.LowRank > c.N {
		return fmt.Errorf("pixelfly: low rank %d out of range [0,%d]", c.LowRank, c.N)
	}
	return nil
}

// SupportBlocks returns the block-grid support of the flat block
// butterfly: diagonal blocks plus, for every butterfly stage s, the blocks
// covering the (i, i XOR 2^(s-1)) connections, mapped from the
// ButterflySize-node graph onto the (N/BlockSize)-wide block grid.
func (c Config) SupportBlocks() [][2]int {
	nb := c.N / c.BlockSize
	bfs := c.ButterflySize
	type edge struct{ i, j int }
	var edges []edge
	for i := 0; i < bfs; i++ {
		edges = append(edges, edge{i, i})
	}
	for h := 1; h < bfs; h <<= 1 {
		for i := 0; i < bfs; i++ {
			edges = append(edges, edge{i, i ^ h})
		}
	}
	seen := make(map[[2]int]bool)
	var out [][2]int
	for _, e := range edges {
		// node i covers block rows [i·nb/bfs, (i+1)·nb/bfs)
		r0, r1 := e.i*nb/bfs, (e.i+1)*nb/bfs
		c0, c1 := e.j*nb/bfs, (e.j+1)*nb/bfs
		if r1 == r0 { // squeeze: several nodes share one block
			r1 = r0 + 1
		}
		if c1 == c0 {
			c1 = c0 + 1
		}
		for r := r0; r < r1 && r < nb; r++ {
			for cc := c0; cc < c1 && cc < nb; cc++ {
				key := [2]int{r, cc}
				if !seen[key] {
					seen[key] = true
					out = append(out, key)
				}
			}
		}
	}
	return out
}

// Pixelfly is a learnable N×N pixelated-butterfly weight: a block-sparse
// matrix W on the flat-block-butterfly support plus a low-rank term U·Vᵀ.
// Effective transform of a row vector x: y = W·x + U·(Vᵀ·x). GradW, GradU
// and GradV are nil until the first Backward or Params.
type Pixelfly struct {
	Cfg   Config
	W     *sparse.BSR
	GradW *sparse.BSR // same pattern and layout, holds dL/dW
	U, V  *tensor.Matrix
	GradU *tensor.Matrix
	GradV *tensor.Matrix

	// ut caches Uᵀ (r×N) for the allocation-free inference path;
	// re-derived by Refresh after every optimizer step.
	ut *tensor.Matrix
	// wRows holds W's blocks in row-major order (sparse.TransposeBlocks),
	// the layout the input gradient reads. Only training holds it: the
	// first Backward allocates it and every Backward re-derives it from
	// W, so a served layer keeps one copy of its blocks.
	wRows []float32

	// saved forward state
	xSaved  *tensor.Matrix
	xvSaved *tensor.Matrix
}

// New constructs a pixelfly layer with random initialization (blocks and
// low-rank factors scaled like 1/sqrt(fan-in)).
func New(cfg Config, rng *rand.Rand) (*Pixelfly, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pattern := cfg.SupportBlocks()
	w, err := sparse.NewBSR(cfg.N, cfg.N, cfg.BlockSize, pattern)
	if err != nil {
		return nil, err
	}
	p := &Pixelfly{Cfg: cfg, W: w}
	// Fan-in-aware init: each output row sees ~numBlocks·bs²/N nonzero
	// inputs (not N), so scale by the effective fan-in to keep activation
	// variance at the dense layer's level.
	fanIn := float64(len(pattern)*cfg.BlockSize*cfg.BlockSize) / float64(cfg.N)
	if fanIn < 1 {
		fanIn = 1
	}
	scale := float32(1.0 / sqrtf(fanIn))
	w.FillRowMajor(func() float32 { return (rng.Float32()*2 - 1) * scale })
	r := cfg.LowRank
	p.U = tensor.New(cfg.N, r)
	p.V = tensor.New(cfg.N, r)
	if r > 0 {
		p.U.FillRandom(rng, scale)
		p.V.FillRandom(rng, scale)
	}
	p.Refresh()
	return p, nil
}

// Refresh re-derives the cached Uᵀ after an optimizer step mutates U.
func (p *Pixelfly) Refresh() {
	if p.Cfg.LowRank == 0 {
		return
	}
	if p.ut == nil {
		p.ut = tensor.New(p.Cfg.LowRank, p.Cfg.N)
	}
	tensor.TransposeInto(p.ut, p.U)
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 40; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

// ParamCount returns the learnable parameter count:
// storedBlocks·BlockSize² + 2·N·LowRank.
func (p *Pixelfly) ParamCount() int {
	return len(p.W.Blocks) + 2*p.Cfg.N*p.Cfg.LowRank
}

// Flops returns the forward flop count for a batch: block-sparse matmul
// plus two low-rank matmuls.
func (p *Pixelfly) Flops(batch int) float64 {
	lr := 4 * float64(p.Cfg.N) * float64(p.Cfg.LowRank) * float64(batch)
	return p.W.Flops(batch) + lr
}

// Forward computes Y (batch×N) from X (batch×N): y_row = W·x_row + U·Vᵀ·x_row.
// State is retained for Backward. The block-sparse product is
// BSR.MulInto with the block rows split across GOMAXPROCS
// (tensor.ParallelRows), and the low-rank term tensor.MatMulParallel;
// both are microkernel.AccRow inside, on its AVX2 lane where the host has
// one. Each output element is summed by one worker in the serial order,
// so for finite inputs the result is bit-for-bit Apply's.
func (p *Pixelfly) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != p.Cfg.N {
		panic(fmt.Sprintf("pixelfly: input width %d != N %d", x.Cols, p.Cfg.N))
	}
	p.xSaved = x
	out := tensor.New(x.Rows, p.Cfg.N)
	tensor.ParallelRows(p.W.BlockRows, len(p.W.Blocks)*x.Rows, forwardJob{p.W, out, x}, func(j forwardJob, lo, hi int) {
		j.w.MulInto(j.out, lo*j.w.BlockSize, j.x, lo, hi, nil, tensor.ActNone)
	})
	if p.Cfg.LowRank > 0 {
		xv := tensor.MatMulParallel(x, p.V) // batch×r
		p.xvSaved = xv
		lr := tensor.MatMulParallel(xv, p.ut) // batch×N
		tensor.AddInPlace(out, lr)
	}
	return out
}

// forwardJob carries Forward's block-sparse product to its workers.
type forwardJob struct {
	w      *sparse.BSR
	out, x *tensor.Matrix
}

// Apply is Forward without retaining state. It writes no receiver fields,
// so any number of goroutines may share one Pixelfly for inference.
func (p *Pixelfly) Apply(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != p.Cfg.N {
		panic(fmt.Sprintf("pixelfly: input width %d != N %d", x.Cols, p.Cfg.N))
	}
	out := p.W.MulDense(x.Transpose()).Transpose()
	if p.Cfg.LowRank > 0 {
		xv := tensor.MatMul(x, p.V)
		tensor.AddInPlace(out, tensor.MatMul(xv, p.U.Transpose()))
	}
	return out
}

// ApplyInto is Apply writing into caller-owned dst (shape x.Rows×N, fully
// overwritten), with the bias add and activation fused into the layer's
// last output-writing stage: it is ApplyColsInto's window [0, N). bias may
// be nil; a nil bias with ActNone is the plain product. dst must not
// alias x.
func (p *Pixelfly) ApplyInto(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation) {
	p.ApplyColsInto(dst, x, ws, 0, p.Cfg.N, bias, act)
}

// ApplyColsInto writes columns [lo, hi) of act(Apply(x) + bias) into the
// same columns of dst (shape x.Rows×N; the other columns are untouched),
// the window one tensor-parallel shard computes; lo and hi fall on block
// boundaries. The block-sparse product (BSR.MulInto) runs batch-major
// over the window's block rows straight into dst, and the low-rank term
// stages X·V and the window's back-projection through the workspace,
// reading the cached Uᵀ's window in place through its row stride; on an
// AVX2 host both run microkernel.AccRow's assembly lane. With a low-rank
// term the residual accumulation already resweeps the window, so the
// epilogue rides that pass (act((W·x + U·Vᵀ·x) + bias)); without one, the
// bias and activation finish each block row of the product as it
// completes. Every float32 operation matches Apply's chain, so the result
// is bit-for-bit act(Apply(x) + bias) on the window. bias is
// window-relative and may be nil. dst must not alias x.
func (p *Pixelfly) ApplyColsInto(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int, bias []float32, act tensor.Activation) {
	n, bs := p.Cfg.N, p.Cfg.BlockSize
	if x.Cols != n {
		panic(fmt.Sprintf("pixelfly: input width %d != N %d", x.Cols, n))
	}
	if dst.Rows != x.Rows || dst.Cols != n {
		panic(fmt.Sprintf("pixelfly: ApplyInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, n))
	}
	if lo < 0 || lo > hi || hi > n || lo%bs != 0 || hi%bs != 0 {
		panic(fmt.Sprintf("pixelfly: window [%d,%d) is not a run of whole %d-wide blocks of %d columns", lo, hi, bs, n))
	}
	if bias != nil && len(bias) != hi-lo {
		panic(fmt.Sprintf("pixelfly: ApplyInto bias length %d != window width %d", len(bias), hi-lo))
	}
	r := p.Cfg.LowRank
	if r == 0 {
		p.W.MulInto(dst, lo, x, lo/bs, hi/bs, bias, act)
		return
	}
	p.W.MulInto(dst, lo, x, lo/bs, hi/bs, nil, tensor.ActNone)
	xv := ws.Take(x.Rows, r)
	tensor.MatMulInto(xv, x, p.V)
	lr := ws.Take(x.Rows, hi-lo)
	tensor.MatMulColsBiasActInto(lr, 0, xv, p.ut, lo, hi, nil, tensor.ActNone)
	tensor.AddInPlaceColsBiasAct(dst, lo, lr, bias, act)
}

// Scratch is ApplyInto's workspace demand at rows rows: its window's.
func (p *Pixelfly) Scratch(rows int) tensor.Scratch { return p.ColsScratch(rows, p.Cfg.N) }

// ColsScratch is ApplyColsInto's workspace demand for a window of cols
// columns at rows rows: none without a low-rank term, and with one X·V
// (rows×r) and the window's back-projection (rows×cols).
func (p *Pixelfly) ColsScratch(rows, cols int) tensor.Scratch {
	if p.Cfg.LowRank == 0 {
		return tensor.Scratch{}
	}
	return tensor.Scratch{Floats: rows*p.Cfg.LowRank + rows*cols, Headers: 2}
}

// ColsAlign is the multiple ApplyColsInto's window bounds fall on: the
// block size.
func (p *Pixelfly) ColsAlign() int { return p.Cfg.BlockSize }

// ColsShared is what every window of ApplyColsInto repeats whatever its
// columns: V's bytes and the per-row flops of X·V.
func (p *Pixelfly) ColsShared() (bytes int, flopsPerRow int64) {
	return 4 * p.Cfg.N * p.Cfg.LowRank, int64(2 * p.Cfg.N * p.Cfg.LowRank)
}

// MicroVariant names the kernel ApplyInto runs, which the plan compiler
// stamps into step metadata: every block size runs BSR.MulInto, whose
// stored blocks tile the output into microkernel.AccRow calls.
func (p *Pixelfly) MicroVariant() string { return "blocktiled" }

// Backward propagates dY (batch×N), accumulating gradients, and returns dX.
// Like Forward it runs on the training kernels split across GOMAXPROCS
// (BSR.InputGradInto over the row-major copy of W's blocks,
// BSR.AccumulateOuter on the saved X, and tensor.MatMulParallel for the
// low-rank terms), all of them microkernel.AccRow inside, each output and
// gradient element summed by one worker in the serial order. The
// block-sparse products take dY and X batch-major as they come.
func (p *Pixelfly) Backward(dY *tensor.Matrix) *tensor.Matrix {
	if p.xSaved == nil {
		panic("pixelfly: Backward called before Forward")
	}
	p.ensureGrads()
	x := p.xSaved
	// dX from the block-sparse term: dX_row = Wᵀ·dY_row, over W's blocks
	// re-derived in row-major order, since an optimizer step may have
	// moved them since the last Backward.
	if p.wRows == nil {
		p.wRows = make([]float32, len(p.W.Blocks))
	}
	p.W.TransposeBlocks(p.wRows)
	dX := tensor.New(dY.Rows, p.Cfg.N)
	p.W.InputGradInto(dX, dY, p.wRows)
	// dW = dYᵀ·X masked to the support.
	p.GradW.AccumulateOuter(dY, x, 1)
	if p.Cfg.LowRank > 0 {
		// y += (X·V)·Uᵀ, so:
		// dU = dYᵀ·(X·V); dV = Xᵀ·(dY·U); dX += (dY·U)·Vᵀ
		dyU := tensor.MatMulParallel(dY, p.U) // batch×r
		tensor.AddInPlace(p.GradU, tensor.MatMulParallel(dY.Transpose(), p.xvSaved))
		tensor.AddInPlace(p.GradV, tensor.MatMulParallel(x.Transpose(), dyU))
		tensor.AddInPlace(dX, tensor.MatMulParallel(dyU, p.V.Transpose()))
	}
	return dX
}

// ZeroGrad clears accumulated gradients.
func (p *Pixelfly) ZeroGrad() {
	if p.GradW == nil {
		return
	}
	for i := range p.GradW.Blocks {
		p.GradW.Blocks[i] = 0
	}
	p.GradU.Zero()
	p.GradV.Zero()
}

// Params returns flat (parameter, gradient) slice pairs for the optimizer.
func (p *Pixelfly) Params() (params, grads [][]float32) {
	p.ensureGrads()
	params = append(params, p.W.Blocks)
	grads = append(grads, p.GradW.Blocks)
	if p.Cfg.LowRank > 0 {
		params = append(params, p.U.Data, p.V.Data)
		grads = append(grads, p.GradU.Data, p.GradV.Data)
	}
	return params, grads
}

// ensureGrads allocates the gradients on first use. GradW takes W's
// pattern from the configuration New already validated, so NewBSR cannot
// fail here.
func (p *Pixelfly) ensureGrads() {
	if p.GradW != nil {
		return
	}
	gw, err := sparse.NewBSR(p.Cfg.N, p.Cfg.N, p.Cfg.BlockSize, p.Cfg.SupportBlocks())
	if err != nil {
		panic(err)
	}
	p.GradW = gw
	p.GradU = tensor.New(p.Cfg.N, p.Cfg.LowRank)
	p.GradV = tensor.New(p.Cfg.N, p.Cfg.LowRank)
}

// Dense materializes the effective N×N matrix W + U·Vᵀ for verification.
func (p *Pixelfly) Dense() *tensor.Matrix {
	out := p.W.ToDense()
	if p.Cfg.LowRank > 0 {
		tensor.AddInPlace(out, tensor.MatMul(p.U, p.V.Transpose()))
	}
	return out
}
