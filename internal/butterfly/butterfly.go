// Package butterfly implements the paper's central object: the butterfly
// factorization of Dao et al. (ICML'19), T = B_logN · … · B_1 · P, where
// each factor B_s is block-diagonal with 2×2 blocks pairing indices at
// stride 2^(s-1) and P is a fixed permutation. A butterfly factorization
// stores O(N log N) parameters and multiplies a vector in O(N log N)
// operations — the replacement for the O(N²) dense layer that the paper
// ports to the IPU.
//
// Two parameterizations are provided:
//
//   - Dense2x2: every 2×2 block holds four free parameters
//     (2·N·log2 N parameters total).
//   - Rotation: every block is a Givens rotation with one learnable angle
//     ((N/2)·log2 N parameters total) — this is the variant whose SHL
//     parameter count (16,394) reproduces the paper's 98.5% compression
//     (paper: 16,390).
package butterfly

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fft"
	"repro/internal/tensor"
)

// Parameterization selects how the 2×2 blocks are parameterized.
type Parameterization int

const (
	// Dense2x2 stores four free coefficients per block.
	Dense2x2 Parameterization = iota
	// Rotation stores one angle per block; the block is the Givens
	// rotation [cos θ, sin θ; −sin θ, cos θ].
	Rotation
)

func (p Parameterization) String() string {
	switch p {
	case Dense2x2:
		return "dense2x2"
	case Rotation:
		return "rotation"
	default:
		return fmt.Sprintf("Parameterization(%d)", int(p))
	}
}

// Factor is one butterfly factor B_s. Pairs are enumerated 0..N/2-1; pair p
// in stage s couples indices top(p) and top(p)+2^(s-1).
type Factor struct {
	N     int
	Stage int // 1-based; pairing stride is 2^(Stage-1)

	// Dense2x2 coefficients (always materialized; for Rotation they are
	// derived from Theta and refreshed by syncRotation).
	A, B, C, D []float32

	// Rotation parameterization state (nil for Dense2x2).
	Theta []float32

	// Gradients, same shapes as the corresponding parameters; nil until
	// the butterfly's first Backward or Params.
	GradA, GradB, GradC, GradD []float32
	GradTheta                  []float32
}

// NumPairs returns N/2.
func (f *Factor) NumPairs() int { return f.N / 2 }

// Butterfly is a full factorization T = B_logN · … · B_1 · P.
type Butterfly struct {
	N       int
	Param   Parameterization
	Factors []*Factor // Factors[s-1] is stage s; applied in increasing order
	Perm    []int     // input permutation; nil means identity

	// ws holds the training step's buffers: Forward's stage inputs and
	// output, then Backward's gradient at each stage input and dX.
	// Forward resets it.
	ws tensor.Workspace

	// saved stage inputs from the last Forward, for Backward
	stageInputs []*tensor.Matrix

	// Backward's working set, kept to reuse the slices: the gradient at
	// each stage input (then dY), and each factor transposed.
	stageGrads []*tensor.Matrix
	transposed []Factor
}

// New creates a random butterfly of size n (a power of two) with the given
// parameterization and the bit-reversal input permutation (matching the
// FFT-inspired construction of the paper's Eq. 2). Blocks are initialized
// near rotations so the factor product is approximately orthogonal, which
// keeps deep products well conditioned for training.
func New(n int, param Parameterization, rng *rand.Rand) *Butterfly {
	b := newEmpty(n, param)
	b.Perm = fft.BitReverse(n)
	for _, f := range b.Factors {
		for p := 0; p < f.NumPairs(); p++ {
			theta := (rng.Float64()*2 - 1) * math.Pi
			c, s := float32(math.Cos(theta)), float32(math.Sin(theta))
			switch param {
			case Rotation:
				f.Theta[p] = float32(theta)
			case Dense2x2:
				// rotation plus small perturbation
				eps := func() float32 { return (rng.Float32()*2 - 1) * 0.05 }
				f.A[p] = c + eps()
				f.B[p] = s + eps()
				f.C[p] = -s + eps()
				f.D[p] = c + eps()
			}
		}
		if param == Rotation {
			f.syncRotation()
		}
	}
	return b
}

// NewIdentity creates a butterfly initialized to the identity transform
// (each block is I, identity permutation). Used by the flat-butterfly
// residual construction of pixelfly.
func NewIdentity(n int, param Parameterization) *Butterfly {
	b := newEmpty(n, param)
	for _, f := range b.Factors {
		for p := 0; p < f.NumPairs(); p++ {
			switch param {
			case Rotation:
				f.Theta[p] = 0
			case Dense2x2:
				f.A[p], f.D[p] = 1, 1
			}
		}
		if param == Rotation {
			f.syncRotation()
		}
	}
	return b
}

// NewHadamard creates the fixed Dense2x2 butterfly whose product is the
// unnormalized Walsh–Hadamard transform: every block is [1 1; 1 -1] and
// the permutation is identity. It is the real-valued analogue of the FFT
// special case (paper Eq. 1) and serves as a correctness oracle.
func NewHadamard(n int) *Butterfly {
	b := newEmpty(n, Dense2x2)
	for _, f := range b.Factors {
		for p := 0; p < f.NumPairs(); p++ {
			f.A[p], f.B[p] = 1, 1
			f.C[p], f.D[p] = 1, -1
		}
	}
	return b
}

func newEmpty(n int, param Parameterization) *Butterfly {
	if !fft.IsPowerOfTwo(n) {
		panic(fmt.Sprintf("butterfly: size %d is not a power of two", n))
	}
	stages := fft.Log2(n)
	b := &Butterfly{N: n, Param: param, Factors: make([]*Factor, stages)}
	for s := 1; s <= stages; s++ {
		f := &Factor{N: n, Stage: s,
			A: make([]float32, n/2), B: make([]float32, n/2),
			C: make([]float32, n/2), D: make([]float32, n/2),
		}
		if param == Rotation {
			f.Theta = make([]float32, n/2)
		}
		b.Factors[s-1] = f
	}
	return b
}

// ensureGrads allocates every factor's gradients on first use. Backward
// accumulates the coefficient gradients of a Rotation butterfly too, before
// folding them into GradTheta.
func (b *Butterfly) ensureGrads() {
	for _, f := range b.Factors {
		if f.GradA != nil {
			continue
		}
		n := f.NumPairs()
		f.GradA, f.GradB, f.GradC, f.GradD = make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
		if b.Param == Rotation {
			f.GradTheta = make([]float32, n)
		}
	}
}

// syncRotation refreshes the dense coefficients from Theta.
func (f *Factor) syncRotation() {
	for p := range f.Theta {
		sin, cos := math.Sincos(float64(f.Theta[p]))
		c, s := float32(cos), float32(sin)
		f.A[p], f.B[p], f.C[p], f.D[p] = c, s, -s, c
	}
}

// ParamCount returns the number of learnable parameters.
func (b *Butterfly) ParamCount() int {
	logN := fft.Log2(b.N)
	switch b.Param {
	case Rotation:
		return b.N / 2 * logN
	default:
		return 2 * b.N * logN
	}
}

// Flops returns the floating-point operations of a Forward over a batch of
// the given size: 6 flops per pair per stage per sample (4 mul + 2 add).
func (b *Butterfly) Flops(batch int) float64 {
	return 6 * float64(b.N/2) * float64(len(b.Factors)) * float64(batch)
}

// applyPermRows returns x with columns permuted so row vectors are
// reordered by Perm: out[r][i] = x[r][Perm[i]].
func (b *Butterfly) applyPermRows(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	b.applyPermRowsInto(out, x, 0, x.Rows)
	return out
}

// applyPermRowsInto is applyPermRows over the rows [lo, hi), into
// caller-owned out (which must not alias x); a nil Perm degenerates to a
// copy.
func (b *Butterfly) applyPermRowsInto(out, x *tensor.Matrix, lo, hi int) {
	if b.Perm == nil {
		copy(out.Data[lo*x.Cols:hi*x.Cols], x.Data[lo*x.Cols:hi*x.Cols])
		return
	}
	for r := lo; r < hi; r++ {
		src := x.Row(r)
		dst := out.Row(r)
		for i, p := range b.Perm {
			dst[i] = src[p]
		}
	}
}

// Forward applies the butterfly to each row of x (batch × N), returning
// batch × N. Stage inputs are retained for Backward. Rows are independent,
// so row windows are split across GOMAXPROCS (tensor.ParallelRows) and
// each window runs the permutation and every stage sweep
// (applyFactorRowsMicro) in turn; the result is bit-for-bit Apply's.
func (b *Butterfly) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != b.N {
		panic(fmt.Sprintf("butterfly: input width %d != N %d", x.Cols, b.N))
	}
	b.ws.Reset()
	b.stageInputs = b.stageInputs[:0]
	for range b.Factors {
		b.stageInputs = append(b.stageInputs, b.ws.Take(x.Rows, x.Cols))
	}
	out := b.ws.Take(x.Rows, x.Cols)
	tensor.ParallelRows(x.Rows, b.macs(x.Rows), forwardJob{b, x, out}, func(j forwardJob, lo, hi int) {
		j.b.forwardRows(j.x, j.out, lo, hi)
	})
	return out
}

// forwardJob carries Forward's operands to its workers.
type forwardJob struct {
	b      *Butterfly
	x, out *tensor.Matrix
}

// forwardRows runs the rows [lo, hi) of x through the permutation and
// every stage, filling the saved stage inputs and out.
func (b *Butterfly) forwardRows(x, out *tensor.Matrix, lo, hi int) {
	stage := func(s int) *tensor.Matrix {
		if s < len(b.stageInputs) {
			return b.stageInputs[s]
		}
		return out
	}
	b.applyPermRowsInto(stage(0), x, lo, hi)
	for s, f := range b.Factors {
		applyFactorRowsMicro(f, stage(s), stage(s+1), lo, hi)
	}
}

// macs is the multiply-add count of sweeping every stage over the given
// number of rows, two per element per stage: the work measure
// tensor.ParallelRows compares against its serial cutoff.
func (b *Butterfly) macs(rows int) int { return 2 * rows * b.N * len(b.Factors) }

// Apply is Forward without retaining state (inference path).
func (b *Butterfly) Apply(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != b.N {
		panic(fmt.Sprintf("butterfly: input width %d != N %d", x.Cols, b.N))
	}
	cur := b.applyPermRows(x)
	for _, f := range b.Factors {
		next := tensor.New(cur.Rows, cur.Cols)
		applyFactorRows(f, cur, next)
		cur = next
	}
	return cur
}

// ApplyInto is Apply writing into caller-owned dst (shape x.Rows×N, fully
// overwritten), with the fused tail of a linear layer — bias add then
// activation — folded into the final factor stage, so each output element
// is written exactly once already finished instead of being reswept by two
// more arena passes. The stage sweep ping-pongs between dst and one
// workspace scratch buffer instead of allocating a fresh matrix per
// factor, through the unrolled sweeps of micro.go. Every element is
// produced by Apply's per-stage arithmetic, and act(v + bias) is the same
// float32 chain as separate sweeps, so the result is bit-for-bit
// act(Apply(x) + bias). bias may be nil; a nil bias with ActNone is the
// plain product. A factorless butterfly (N=1) degenerates to the
// permutation plus a post-sweep. dst must not alias x.
func (b *Butterfly) ApplyInto(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation) {
	if x.Cols != b.N {
		panic(fmt.Sprintf("butterfly: input width %d != N %d", x.Cols, b.N))
	}
	if dst.Rows != x.Rows || dst.Cols != b.N {
		panic(fmt.Sprintf("butterfly: ApplyInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, b.N))
	}
	if bias != nil && len(bias) != b.N {
		panic(fmt.Sprintf("butterfly: ApplyInto bias length %d != N %d", len(bias), b.N))
	}
	if len(b.Factors) == 0 {
		b.applyPermRowsInto(dst, x, 0, x.Rows)
		tensor.ApplyBiasActInto(dst, dst, bias, act)
		return
	}
	tmp := ws.Take(x.Rows, b.N)
	// Buffers alternate permOut → stage1 → … → stageS; pick the first so
	// the final stage lands exactly in dst.
	cur, other := dst, tmp
	if len(b.Factors)%2 == 1 {
		cur, other = tmp, dst
	}
	b.applyPermRowsInto(cur, x, 0, x.Rows)
	for _, f := range b.Factors[:len(b.Factors)-1] {
		applyFactorRowsMicro(f, cur, other, 0, x.Rows)
		cur, other = other, cur
	}
	applyFactorRowsEpilogueMicro(b.Factors[len(b.Factors)-1], cur, other, bias, act)
}

// Scratch is ApplyInto's workspace demand at rows rows: the one rows×N
// buffer the stage sweeps ping-pong through (none without factors).
func (b *Butterfly) Scratch(rows int) tensor.Scratch {
	if len(b.Factors) == 0 {
		return tensor.Scratch{}
	}
	return tensor.Scratch{Floats: rows * b.N, Headers: 1}
}

// applyFactorRows is one stage sweep in its reference form: Apply's path,
// and the oracle the unrolled sweeps are tested against.
func applyFactorRows(f *Factor, in, out *tensor.Matrix) {
	half := 1 << (f.Stage - 1)
	block := half << 1
	n := f.N
	for r := 0; r < in.Rows; r++ {
		src := in.Row(r)
		dst := out.Row(r)
		p := 0
		for start := 0; start < n; start += block {
			for k := 0; k < half; k++ {
				top := start + k
				bot := top + half
				xt, xb := src[top], src[bot]
				dst[top] = f.A[p]*xt + f.B[p]*xb
				dst[bot] = f.C[p]*xt + f.D[p]*xb
				p++
			}
		}
	}
}

// applyFactorRowsEpilogue is applyFactorRows for the final stage of a
// fused layer: each pair's two outputs get the bias added and the
// activation applied the moment they are computed. bias may be nil.
func applyFactorRowsEpilogue(f *Factor, in, out *tensor.Matrix, bias []float32, act tensor.Activation) {
	half := 1 << (f.Stage - 1)
	block := half << 1
	n := f.N
	for r := 0; r < in.Rows; r++ {
		src := in.Row(r)
		dst := out.Row(r)
		p := 0
		for start := 0; start < n; start += block {
			for k := 0; k < half; k++ {
				top := start + k
				bot := top + half
				xt, xb := src[top], src[bot]
				vt := f.A[p]*xt + f.B[p]*xb
				vb := f.C[p]*xt + f.D[p]*xb
				if bias != nil {
					vt += bias[top]
					vb += bias[bot]
				}
				dst[top] = act.Apply(vt)
				dst[bot] = act.Apply(vb)
				p++
			}
		}
	}
}

// PermuteColsInto writes columns [lo, hi) of x's rows reordered by Perm
// into the same columns of dst, dst[r][i] = x[r][Perm[i]] (a copy of the
// window for a nil Perm): the first pass of a tensor-parallel shard's
// window of the butterfly, ApplyInto's permutation on the window's
// columns. dst must not alias x.
func (b *Butterfly) PermuteColsInto(dst, x *tensor.Matrix, lo, hi int) {
	for r := 0; r < x.Rows; r++ {
		src, out := x.Row(r), dst.Row(r)
		if b.Perm == nil {
			copy(out[lo:hi], src[lo:hi])
			continue
		}
		for i, p := range b.Perm[lo:hi] {
			out[lo+i] = src[p]
		}
	}
}

// ApplyColsInto writes output columns [lo, hi) of one application of the
// factor into the same columns of dst, reading whichever columns of x the
// window's pairs need: each lies in the aligned 2^Stage-column block
// around its output, possibly outside the window, which a tensor-parallel
// shard reads from the columns another shard wrote the pass before. Each
// element is produced by the expression applyFactorRows uses, so a sweep
// assembled from windows is bit for bit the full sweep. The epilogue —
// bias (window-relative, nil for none) then activation — is applied as
// each element is produced, as applyFactorRowsEpilogue does.
func (f *Factor) ApplyColsInto(dst, x *tensor.Matrix, lo, hi int, bias []float32, act tensor.Activation) {
	h := 1 << (f.Stage - 1)
	for r := 0; r < x.Rows; r++ {
		src, out := x.Row(r), dst.Row(r)
		for i := lo; i < hi; i++ {
			var v float32
			if i&h == 0 {
				p := (i>>uint(f.Stage))*h + i&(h-1)
				v = f.A[p]*src[i] + f.B[p]*src[i+h]
			} else {
				top := i - h
				p := (top>>uint(f.Stage))*h + top&(h-1)
				v = f.C[p]*src[top] + f.D[p]*src[i]
			}
			if bias != nil {
				v += bias[i-lo]
			}
			out[i] = act.Apply(v)
		}
	}
}

// Backward propagates dY (batch × N) through the butterfly, accumulating
// parameter gradients (into GradA..GradD / GradTheta) and returning dX,
// or nil without inputGrad. Forward must have been called first. It runs
// in two fan-outs over GOMAXPROCS (tensor.ParallelRows). The first splits
// rows, which are independent: each row window runs the input-gradient
// sweep of every stage in turn, dX = Bᵀ·dY per pair, through the forward
// micro-kernels on the transposed factors, then the permutation. Without
// inputGrad it stops above the first stage, whose output gradient is
// the last one the coefficient gradients read. The second splits pairs:
// each pair's coefficient gradients sum the rows in ascending order, as
// the serial sweep does, so the result does not depend on the worker
// count.
func (b *Butterfly) Backward(dY *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	if len(b.stageInputs) != len(b.Factors) {
		panic("butterfly: Backward called before Forward")
	}
	b.ensureGrads()
	b.stageGrads, b.transposed = b.stageGrads[:0], b.transposed[:0]
	for s, f := range b.Factors {
		var g *tensor.Matrix
		if s > 0 || inputGrad {
			g = b.ws.Take(dY.Rows, dY.Cols)
		}
		b.stageGrads = append(b.stageGrads, g)
		b.transposed = append(b.transposed, Factor{N: f.N, Stage: f.Stage, A: f.A, B: f.C, C: f.B, D: f.D})
	}
	b.stageGrads = append(b.stageGrads, dY)
	var dX *tensor.Matrix
	if inputGrad {
		dX = b.stageGrads[0]
		if b.Perm != nil {
			dX = b.ws.Take(dY.Rows, dY.Cols)
		}
	}
	tensor.ParallelRows(dY.Rows, b.macs(dY.Rows), backwardJob{b, dX}, func(j backwardJob, lo, hi int) {
		j.b.inputGradRows(j.dX, lo, hi)
	})
	tensor.ParallelRows(b.N/2, b.macs(dY.Rows), b, func(bf *Butterfly, lo, hi int) {
		for s, f := range bf.Factors {
			gradFactorPairs(f, bf.stageInputs[s], bf.stageGrads[s+1], lo, hi)
			if bf.Param == Rotation {
				foldRotationGrads(f, lo, hi)
			}
		}
	})
	clear(b.stageGrads)
	return dX
}

// backwardJob carries Backward's operands to its workers.
type backwardJob struct {
	b  *Butterfly
	dX *tensor.Matrix
}

// inputGradRows runs the rows [lo, hi) of the output gradient back through
// every stage, then the permutation into dX. The forward permutation read
// dst[i] = src[Perm[i]], so its gradient scatters dX[Perm[i]] = g[i],
// each added to a cleared row. A nil dX stops above the first stage.
func (b *Butterfly) inputGradRows(dX *tensor.Matrix, lo, hi int) {
	last := 1
	if dX != nil {
		last = 0
	}
	for s := len(b.Factors) - 1; s >= last; s-- {
		applyFactorRowsMicro(&b.transposed[s], b.stageGrads[s+1], b.stageGrads[s], lo, hi)
	}
	if dX == nil || b.Perm == nil {
		return
	}
	for r := lo; r < hi; r++ {
		src := b.stageGrads[0].Row(r)
		dst := dX.Row(r)
		clear(dst)
		for i, p := range b.Perm {
			dst[p] += src[i]
		}
	}
}

// gradFactorPairs adds one factor's coefficient gradients for the pairs
// [p0, p1), taking the rows in ascending order: in is the stage input
// saved by Forward, dOut the gradient at the stage output.
func gradFactorPairs(f *Factor, in, dOut *tensor.Matrix, p0, p1 int) {
	half := 1 << (f.Stage - 1)
	gA, gB, gC, gD := f.GradA[:p1], f.GradB[:p1], f.GradC[:p1], f.GradD[:p1]
	for r := 0; r < in.Rows; r++ {
		x, dy := in.Row(r), dOut.Row(r)
		k := p0 % half
		top := 2*(p0-k) + k // pair p couples top and top+half
		for p := p0; p < p1; p++ {
			bot := top + half
			vt, vb := x[top], x[bot]
			ut, ub := dy[top], dy[bot]
			gA[p] += ut * vt
			gB[p] += ut * vb
			gC[p] += ub * vt
			gD[p] += ub * vb
			top++
			if k++; k == half {
				k = 0
				top += half
			}
		}
	}
}

// foldRotationGrads converts the accumulated dense-coefficient gradients
// of the pairs [p0, p1) into angle gradients: with a=cosθ, b=sinθ,
// c=−sinθ, d=cosθ,
// dL/dθ = −sinθ·(dA+dD) + cosθ·dB − cosθ·dC ... specifically
// dL/dθ = dA·(−sin) + dB·(cos) + dC·(−cos) + dD·(−sin).
func foldRotationGrads(f *Factor, p0, p1 int) {
	for p := p0; p < p1; p++ {
		s, c := math.Sincos(float64(f.Theta[p]))
		g := -s*float64(f.GradA[p]) + c*float64(f.GradB[p]) - c*float64(f.GradC[p]) - s*float64(f.GradD[p])
		f.GradTheta[p] += float32(g)
		f.GradA[p], f.GradB[p], f.GradC[p], f.GradD[p] = 0, 0, 0, 0
	}
}

// ZeroGrad clears all accumulated gradients.
func (b *Butterfly) ZeroGrad() {
	for _, f := range b.Factors {
		for p := range f.GradA {
			f.GradA[p], f.GradB[p], f.GradC[p], f.GradD[p] = 0, 0, 0, 0
		}
		if f.GradTheta != nil {
			for p := range f.GradTheta {
				f.GradTheta[p] = 0
			}
		}
	}
}

// Params returns the flat learnable parameter slices (aliases, not copies)
// paired with their gradient slices, for consumption by an optimizer.
func (b *Butterfly) Params() (params, grads [][]float32) {
	b.ensureGrads()
	for _, f := range b.Factors {
		if b.Param == Rotation {
			params = append(params, f.Theta)
			grads = append(grads, f.GradTheta)
		} else {
			params = append(params, f.A, f.B, f.C, f.D)
			grads = append(grads, f.GradA, f.GradB, f.GradC, f.GradD)
		}
	}
	return params, grads
}

// Refresh re-derives internal state after an optimizer step (needed for
// Rotation, where dense coefficients are derived from Theta).
func (b *Butterfly) Refresh() {
	if b.Param != Rotation {
		return
	}
	for _, f := range b.Factors {
		f.syncRotation()
	}
}

// Dense materializes the full N×N matrix T = B_logN···B_1·P by pushing the
// identity through the factorization. Used for verification and for
// computing the dense-equivalent workload of the machine models.
func (b *Butterfly) Dense() *tensor.Matrix {
	// Apply to identity rows: row r of the result of Apply(I) is T·e_r
	// laid out as rows, i.e. Apply(I) = Tᵀ read row-wise; transpose back.
	id := tensor.Identity(b.N)
	out := b.Apply(id)
	return out.Transpose()
}
