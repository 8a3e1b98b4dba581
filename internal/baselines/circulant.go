package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fft"
	"repro/internal/tensor"
)

// Circulant parameterizes the n×n weight as a circulant matrix
// W[k][t] = c[(k−t) mod n]; multiplication is circular convolution
// computed in O(N log N) via FFT. With n=1024 the SHL totals 12,298
// parameters, matching Table 4.
type Circulant struct {
	N     int
	C     []float32 // the defining vector
	GradC []float32 // nil until Backward or Params

	// plan is the precomputed in-place FFT ApplyInto convolves through;
	// fc caches fft(C), re-derived by Refresh after optimizer steps (the
	// same hook the cached transposes of LowRank/Pixelfly use).
	plan *fft.Plan
	fc   []complex128

	xSaved *tensor.Matrix
}

// NewCirculant builds a random circulant layer (n must be a power of two
// for the FFT path — the same restriction the paper hit on the IPU).
func NewCirculant(n int, rng *rand.Rand) *Circulant {
	if !fft.IsPowerOfTwo(n) {
		panic(fmt.Sprintf("baselines: circulant size %d must be a power of two", n))
	}
	c := &Circulant{N: n, C: make([]float32, n), plan: fft.NewPlan(n), fc: make([]complex128, n)}
	scale := float32(1 / math.Sqrt(float64(n)))
	for i := range c.C {
		c.C[i] = (rng.Float32()*2 - 1) * scale
	}
	c.Refresh()
	return c
}

// Refresh re-derives the cached fft(C) after an optimizer step mutates C.
func (c *Circulant) Refresh() {
	for i, v := range c.C {
		c.fc[i] = complex(float64(v), 0)
	}
	c.plan.Transform(c.fc)
}

// ParamCount returns n.
func (c *Circulant) ParamCount() int { return c.N }

// Flops counts the FFT-based convolution: ~3 FFTs of 5·N·log2 N each per row.
func (c *Circulant) Flops(batch int) float64 {
	n := float64(c.N)
	return 3 * 5 * n * float64(fft.Log2(c.N)) * float64(batch)
}

// Forward convolves every row of x with the circulant vector.
func (c *Circulant) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := c.Apply(x)
	c.xSaved = x
	return out
}

// Apply is Forward without retaining state. It writes no receiver fields,
// so any number of goroutines may share one Circulant for inference.
func (c *Circulant) Apply(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != c.N {
		panic(fmt.Sprintf("baselines: Circulant input width %d != %d", x.Cols, c.N))
	}
	out := tensor.New(x.Rows, x.Cols)
	for r := 0; r < x.Rows; r++ {
		copy(out.Row(r), fft.CircularConvolve(c.C, x.Row(r)))
	}
	return out
}

// ApplyInto is Apply writing into caller-owned dst (shape x.Rows×N, fully
// overwritten), convolving every row through the precomputed in-place FFT
// plan with workspace scratch, with a fused bias add and activation folded
// into the inverse-FFT writeback — the loop that already touches every
// output element — instead of two further sweeps over dst. The cached
// fft(C) (see Refresh) is reused across rows; every row then sees exactly
// the operations of fft.CircularConvolve, so the result is bit-for-bit
// act(Apply(x) + bias). bias may be nil; a nil bias with ActNone is the
// plain product. dst must not alias x.
func (c *Circulant) ApplyInto(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation) {
	if x.Cols != c.N {
		panic(fmt.Sprintf("baselines: Circulant input width %d != %d", x.Cols, c.N))
	}
	if dst.Rows != x.Rows || dst.Cols != c.N {
		panic(fmt.Sprintf("baselines: Circulant ApplyInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, c.N))
	}
	if bias != nil && len(bias) != c.N {
		panic(fmt.Sprintf("baselines: Circulant ApplyInto bias length %d != %d", len(bias), c.N))
	}
	n := c.N
	fc := c.fc
	row := ws.TakeComplex(n)
	for r := 0; r < x.Rows; r++ {
		src := x.Row(r)
		for i := range src {
			row[i] = complex(float64(src[i]), 0)
		}
		c.plan.Transform(row)
		// fc is the transform of C (the first CircularConvolve operand),
		// so multiply in the same operand order: fft(C)·fft(x).
		for i := range row {
			row[i] = fc[i] * row[i]
		}
		c.plan.Inverse(row)
		d := dst.Row(r)
		for i := range d {
			v := float32(real(row[i]))
			if bias != nil {
				v += bias[i]
			}
			d[i] = act.Apply(v)
		}
	}
}

// Scratch is ApplyInto's workspace demand: one N-point complex row, reused
// for every input row.
func (c *Circulant) Scratch(rows int) tensor.Scratch {
	return tensor.Scratch{Complex: c.N}
}

// Backward: with y = C·x (C circulant), dX = Cᵀ·dY is circular correlation
// with c, and dc[m] = Σ_rows corr(x_row, dy_row)[m].
func (c *Circulant) Backward(dY *tensor.Matrix) *tensor.Matrix {
	if c.xSaved == nil {
		panic("baselines: Circulant Backward before Forward")
	}
	c.ensureGrads()
	dX := tensor.New(dY.Rows, dY.Cols)
	for r := 0; r < dY.Rows; r++ {
		copy(dX.Row(r), fft.CircularCorrelate(c.C, dY.Row(r)))
		dc := fft.CircularCorrelate(c.xSaved.Row(r), dY.Row(r))
		for m := range dc {
			c.GradC[m] += dc[m]
		}
	}
	return dX
}

// ZeroGrad clears gradients.
func (c *Circulant) ZeroGrad() {
	for i := range c.GradC {
		c.GradC[i] = 0
	}
}

// ensureGrads allocates the gradient on first use.
func (c *Circulant) ensureGrads() {
	if c.GradC == nil {
		c.GradC = make([]float32, c.N)
	}
}

// Params returns (parameter, gradient) slice pairs.
func (c *Circulant) Params() (params, grads [][]float32) {
	c.ensureGrads()
	return [][]float32{c.C}, [][]float32{c.GradC}
}

// Dense materializes the circulant matrix.
func (c *Circulant) Dense() *tensor.Matrix {
	out := tensor.New(c.N, c.N)
	for k := 0; k < c.N; k++ {
		for t := 0; t < c.N; t++ {
			out.Set(k, t, c.C[(k-t+c.N)%c.N])
		}
	}
	return out
}
