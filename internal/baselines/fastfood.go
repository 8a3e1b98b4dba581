package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fft"
	"repro/internal/hadamard"
	"repro/internal/tensor"
)

// Fastfood parameterizes the n×n weight as V = S·Ĥ·G·Π·Ĥ·B where S, G, B
// are learnable diagonals, Π is a fixed random permutation and Ĥ = H/√n is
// the orthonormal Walsh–Hadamard transform (Le et al., 2013). 3·n learnable
// parameters; with n=1024 the SHL totals 14,346 parameters, matching
// Table 4.
type Fastfood struct {
	N       int
	S, G, B []float32 // learnable diagonals
	Perm    []int     // fixed permutation Π

	GradS, GradG, GradB []float32 // nil until Backward or Params

	// ws holds the training step's buffers; Forward resets it. Backward
	// reads two forward intermediates (batch×n each): u3 after Π, u5
	// after the second Ĥ.
	ws     tensor.Workspace
	u3, u5 *tensor.Matrix
	xSaved *tensor.Matrix
}

// NewFastfood builds a Fastfood layer with Gaussian-style initialization.
func NewFastfood(n int, rng *rand.Rand) *Fastfood {
	if !fft.IsPowerOfTwo(n) {
		panic(fmt.Sprintf("baselines: fastfood size %d must be a power of two", n))
	}
	f := &Fastfood{N: n,
		S: make([]float32, n), G: make([]float32, n), B: make([]float32, n),
		Perm: rng.Perm(n)}
	for i := 0; i < n; i++ {
		// B: random signs; G: Gaussian; S: near-1 scaling.
		if rng.Intn(2) == 0 {
			f.B[i] = 1
		} else {
			f.B[i] = -1
		}
		f.G[i] = float32(rng.NormFloat64())
		f.S[i] = 1 + float32(rng.NormFloat64())*0.1
	}
	return f
}

// ParamCount returns 3·n (S, G, B; Π and H are fixed).
func (f *Fastfood) ParamCount() int { return 3 * f.N }

// Flops counts two FWHTs (N·log2 N adds each) plus three diagonal scalings
// per row.
func (f *Fastfood) Flops(batch int) float64 {
	n := float64(f.N)
	return (2*n*float64(fft.Log2(f.N)) + 3*n) * float64(batch)
}

func scaleRows(x *tensor.Matrix, d []float32) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	scaleRowsInto(out, x, d)
	return out
}

// scaleRowsInto writes x with every row scaled element-wise by d into out;
// out may alias x.
func scaleRowsInto(out, x *tensor.Matrix, d []float32) {
	for r := 0; r < x.Rows; r++ {
		src := x.Row(r)
		dst := out.Row(r)
		for i := range src {
			dst[i] = src[i] * d[i]
		}
	}
}

func fwhtRows(x *tensor.Matrix) *tensor.Matrix {
	out := x.Clone()
	fwhtRowsInPlace(out)
	return out
}

// fwhtRowsInPlace applies the orthonormal Walsh–Hadamard transform to
// every row of x in place — the same per-row operations fwhtRows performs
// on its copy.
func fwhtRowsInPlace(x *tensor.Matrix) {
	inv := float32(1 / math.Sqrt(float64(x.Cols)))
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		hadamard.Transform(row)
		for i := range row {
			row[i] *= inv
		}
	}
}

func permuteRows(x *tensor.Matrix, perm []int) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	permuteRowsInto(out, x, perm)
	return out
}

// permuteRowsInto writes x with columns reordered by perm into out, which
// must not alias x.
func permuteRowsInto(out, x *tensor.Matrix, perm []int) {
	for r := 0; r < x.Rows; r++ {
		src := x.Row(r)
		dst := out.Row(r)
		for i, p := range perm {
			dst[i] = src[p]
		}
	}
}

// unpermuteRowsInto writes the gradient of permuteRowsInto into out,
// which must not alias x: each row is cleared, then scatters
// out[perm[i]] += x[i].
func unpermuteRowsInto(out, x *tensor.Matrix, perm []int) {
	for r := 0; r < x.Rows; r++ {
		src := x.Row(r)
		dst := out.Row(r)
		clear(dst)
		for i, p := range perm {
			dst[p] += src[i]
		}
	}
}

// Forward applies y_row = S·Ĥ·G·Π·Ĥ·B · x_row to every row through
// Apply's steps, overwriting in place each intermediate Backward does not
// read.
func (f *Fastfood) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != f.N {
		panic(fmt.Sprintf("baselines: Fastfood input width %d != %d", x.Cols, f.N))
	}
	f.ws.Reset()
	f.xSaved = x
	u := f.ws.Take(x.Rows, f.N)
	scaleRowsInto(u, x, f.B)
	fwhtRowsInPlace(u)
	f.u3 = f.ws.Take(x.Rows, f.N)
	permuteRowsInto(f.u3, u, f.Perm)
	scaleRowsInto(u, f.u3, f.G)
	fwhtRowsInPlace(u)
	f.u5 = u
	out := f.ws.Take(x.Rows, f.N)
	scaleRowsInto(out, f.u5, f.S)
	return out
}

// Apply is Forward without retaining state. It writes no receiver fields,
// so any number of goroutines may share one Fastfood for inference.
func (f *Fastfood) Apply(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != f.N {
		panic(fmt.Sprintf("baselines: Fastfood input width %d != %d", x.Cols, f.N))
	}
	u := scaleRows(x, f.B)
	u = fwhtRows(u)
	u = permuteRows(u, f.Perm)
	u = scaleRows(u, f.G)
	u = fwhtRows(u)
	return scaleRows(u, f.S)
}

// ApplyInto is Apply writing into caller-owned dst (shape x.Rows×N, fully
// overwritten), running the S·Ĥ·G·Π·Ĥ·B pipeline through two workspace
// buffers with in-place FWHTs on the radix-8 micro-kernel
// (fwhtRowsInPlaceFast), and with a fused bias add and activation folded
// into the final S-diagonal scaling — the last stage that writes dst — so
// the output leaves cache finished. Each step performs the same float32
// operations as Apply, and act(S⊙u + bias) is the same chain as separate
// sweeps, so the result is bit-for-bit act(Apply(x) + bias). bias may be
// nil; a nil bias with ActNone is the plain product. dst must not alias x.
func (f *Fastfood) ApplyInto(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation) {
	if x.Cols != f.N {
		panic(fmt.Sprintf("baselines: Fastfood input width %d != %d", x.Cols, f.N))
	}
	if dst.Rows != x.Rows || dst.Cols != f.N {
		panic(fmt.Sprintf("baselines: Fastfood ApplyInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, f.N))
	}
	if bias != nil && len(bias) != f.N {
		panic(fmt.Sprintf("baselines: Fastfood ApplyInto bias length %d != %d", len(bias), f.N))
	}
	u := ws.Take(x.Rows, f.N)
	v := ws.Take(x.Rows, f.N)
	scaleRowsInto(u, x, f.B)
	fwhtRowsInPlaceFast(u)
	permuteRowsInto(v, u, f.Perm)
	scaleRowsInto(u, v, f.G)
	fwhtRowsInPlaceFast(u)
	for r := 0; r < x.Rows; r++ {
		src := u.Row(r)
		out := dst.Row(r)
		for i := range src {
			val := src[i] * f.S[i]
			if bias != nil {
				val += bias[i]
			}
			out[i] = act.Apply(val)
		}
	}
}

// Scratch is ApplyInto's workspace demand at rows rows: the two rows×N
// buffers the pipeline runs through.
func (f *Fastfood) Scratch(rows int) tensor.Scratch {
	return tensor.Scratch{Floats: 2 * rows * f.N, Headers: 2}
}

// Backward accumulates diagonal gradients and returns dX, or nil without
// inputGrad, which skips the final scaling by B. Ĥ is symmetric, so its
// transpose is itself; the permutation transposes to its inverse. Each
// gradient it does not read again is overwritten in place.
func (f *Fastfood) Backward(dY *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	if f.xSaved == nil {
		panic("baselines: Fastfood Backward before Forward")
	}
	f.ensureGrads()
	// y = S ⊙ u5
	for r := 0; r < dY.Rows; r++ {
		dyr := dY.Row(r)
		u5r := f.u5.Row(r)
		for i := range dyr {
			f.GradS[i] += dyr[i] * u5r[i]
		}
	}
	d := f.ws.Take(dY.Rows, f.N)
	scaleRowsInto(d, dY, f.S)
	// u5 = Ĥ u4
	fwhtRowsInPlace(d)
	// u4 = G ⊙ u3
	for r := 0; r < d.Rows; r++ {
		d4r := d.Row(r)
		u3r := f.u3.Row(r)
		for i := range d4r {
			f.GradG[i] += d4r[i] * u3r[i]
		}
	}
	scaleRowsInto(d, d, f.G)
	// u3 = Π u2
	d1 := f.ws.Take(dY.Rows, f.N)
	unpermuteRowsInto(d1, d, f.Perm)
	// u2 = Ĥ u1
	fwhtRowsInPlace(d1)
	// u1 = B ⊙ x
	for r := 0; r < d1.Rows; r++ {
		d1r := d1.Row(r)
		xr := f.xSaved.Row(r)
		for i := range d1r {
			f.GradB[i] += d1r[i] * xr[i]
		}
	}
	if !inputGrad {
		return nil
	}
	scaleRowsInto(d1, d1, f.B)
	return d1
}

// ZeroGrad clears gradients.
func (f *Fastfood) ZeroGrad() {
	for i := range f.GradS {
		f.GradS[i], f.GradG[i], f.GradB[i] = 0, 0, 0
	}
}

// ensureGrads allocates the gradients on first use.
func (f *Fastfood) ensureGrads() {
	if f.GradS == nil {
		f.GradS, f.GradG, f.GradB = make([]float32, f.N), make([]float32, f.N), make([]float32, f.N)
	}
}

// Params returns (parameter, gradient) slice pairs.
func (f *Fastfood) Params() (params, grads [][]float32) {
	f.ensureGrads()
	return [][]float32{f.S, f.G, f.B}, [][]float32{f.GradS, f.GradG, f.GradB}
}

// Dense materializes the effective matrix by pushing the identity through.
func (f *Fastfood) Dense() *tensor.Matrix {
	id := tensor.Identity(f.N)
	return f.Apply(id).Transpose()
}
