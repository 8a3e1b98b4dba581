// Package nn is a minimal neural-network training framework with exactly
// the pieces the paper's SHL benchmark needs: a dense layer
// (torch.nn.Linear), adapters wrapping every structured weight method
// (butterfly, pixelfly, fastfood, circulant, low-rank), ReLU, softmax
// cross-entropy, and SGD with momentum (Table 3's hyperparameters). All
// backward passes are hand-derived and verified against numerical
// differentiation in the tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
	"repro/internal/tensor/microkernel"
)

// Layer is a differentiable module. Forward retains whatever state
// Backward needs; Backward returns the gradient w.r.t. the input and
// accumulates parameter gradients. Infer is the read-only counterpart of
// Forward: it mutates no layer state, so one layer can serve concurrent
// goroutines as long as nothing trains it at the same time.
//
// A layer allocates its gradient buffers on first use, in Backward or
// Params, never in its constructor, so a model that is only served holds
// its weights and inference caches and nothing else. Params returns them
// zeroed the first time; ZeroGrad leaves absent buffers absent.
type Layer interface {
	Name() string
	Forward(x *tensor.Matrix) *tensor.Matrix
	Infer(x *tensor.Matrix) *tensor.Matrix
	Backward(dY *tensor.Matrix) *tensor.Matrix
	Params() (params, grads [][]float32)
	ZeroGrad()
	ParamCount() int
}

// refresher is implemented by layers that must re-derive internal state
// after an optimizer step (e.g. rotation-parameterized butterflies).
type refresher interface{ Refresh() }

// Transform is a learnable square linear operator; the butterfly, pixelfly
// and baseline packages all satisfy it. Forward is the training path.
// Apply is Forward without retaining state: it writes nothing through the
// receiver, making shared-weight concurrent inference safe, and it is the
// reference the inference kernel is tested against. ApplyInto is the one
// inference kernel the compiled plans (Sequential.CompilePlan) run: it
// writes act(Apply(x) + bias) into caller-owned dst, bit-for-bit, staging
// intermediates through the caller's workspace arena instead of
// allocating and folding the bias add and activation into the stage that
// writes dst. A nil bias with tensor.ActNone gives the plain product.
// Scratch declares what one ApplyInto at rows rows takes from the
// workspace, so a plan sizes its workspace without running the kernel.
// Like a Layer, a transform allocates its gradient buffers on first use,
// in Backward or Params.
type Transform interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Apply(x *tensor.Matrix) *tensor.Matrix
	ApplyInto(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation)
	Scratch(rows int) tensor.Scratch
	Backward(dY *tensor.Matrix) *tensor.Matrix
	ZeroGrad()
	Params() (params, grads [][]float32)
	ParamCount() int
	Flops(batch int) float64
}

// Dense is the torch.nn.Linear equivalent: Y = X·W + b with W stored
// (in×out).
type Dense struct {
	In, Out int
	W       *tensor.Matrix // in×out
	Bias    []float32

	// Gradients, nil until Backward or Params.
	GradW *tensor.Matrix
	GradB []float32

	xSaved *tensor.Matrix
}

// NewDense creates a dense layer with uniform Kaiming-style init.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, W: tensor.New(in, out), Bias: make([]float32, out)}
	scale := float32(1 / math.Sqrt(float64(in)))
	d.W.FillRandom(rng, scale)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%dx%d)", d.In, d.Out) }

// ParamCount implements Layer.
func (d *Dense) ParamCount() int { return d.In*d.Out + d.Out }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := d.Infer(x)
	d.xSaved = x
	return out
}

// Infer implements Layer: Forward without saving the input for Backward.
func (d *Dense) Infer(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense input width %d != %d", x.Cols, d.In))
	}
	out := tensor.MatMulParallel(x, d.W)
	tensor.AddRowVector(out, d.Bias)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(dY *tensor.Matrix) *tensor.Matrix {
	if d.xSaved == nil {
		panic("nn: dense Backward before Forward")
	}
	d.ensureGrads()
	tensor.AddInPlace(d.GradW, tensor.MatMulParallel(d.xSaved.Transpose(), dY))
	for j, v := range tensor.ColSums(dY) {
		d.GradB[j] += v
	}
	return tensor.MatMulParallel(dY, d.W.Transpose())
}

// Params implements Layer.
func (d *Dense) Params() (params, grads [][]float32) {
	d.ensureGrads()
	return [][]float32{d.W.Data, d.Bias}, [][]float32{d.GradW.Data, d.GradB}
}

// ZeroGrad implements Layer.
func (d *Dense) ZeroGrad() {
	if d.GradW == nil {
		return
	}
	d.GradW.Zero()
	for i := range d.GradB {
		d.GradB[i] = 0
	}
}

// ensureGrads allocates the gradient buffers on first use.
func (d *Dense) ensureGrads() {
	if d.GradW == nil {
		d.GradW, d.GradB = tensor.New(d.In, d.Out), make([]float32, d.Out)
	}
}

// Flops returns 2·in·out per sample.
func (d *Dense) Flops(batch int) float64 {
	return 2 * float64(d.In) * float64(d.Out) * float64(batch)
}

// StructuredLinear wraps a square Transform and adds a bias — the drop-in
// replacement for Dense that Table 4's compressed methods use.
type StructuredLinear struct {
	Label string
	N     int
	T     Transform
	Bias  []float32
	GradB []float32 // nil until Backward or Params
}

// NewStructuredLinear wraps t (an n×n transform).
func NewStructuredLinear(label string, n int, t Transform) *StructuredLinear {
	return &StructuredLinear{Label: label, N: n, T: t, Bias: make([]float32, n)}
}

// Name implements Layer.
func (s *StructuredLinear) Name() string { return fmt.Sprintf("%s(%d)", s.Label, s.N) }

// ParamCount implements Layer.
func (s *StructuredLinear) ParamCount() int { return s.T.ParamCount() + s.N }

// Forward implements Layer.
func (s *StructuredLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := s.T.Forward(x)
	tensor.AddRowVector(out, s.Bias)
	return out
}

// Infer implements Layer: it routes through the transform's stateless
// Apply instead of Forward.
func (s *StructuredLinear) Infer(x *tensor.Matrix) *tensor.Matrix {
	out := s.T.Apply(x)
	tensor.AddRowVector(out, s.Bias)
	return out
}

// Backward implements Layer.
func (s *StructuredLinear) Backward(dY *tensor.Matrix) *tensor.Matrix {
	s.ensureGrads()
	for j, v := range tensor.ColSums(dY) {
		s.GradB[j] += v
	}
	return s.T.Backward(dY)
}

// Params implements Layer.
func (s *StructuredLinear) Params() (params, grads [][]float32) {
	s.ensureGrads()
	p, g := s.T.Params()
	return append(p, s.Bias), append(g, s.GradB)
}

// ZeroGrad implements Layer.
func (s *StructuredLinear) ZeroGrad() {
	s.T.ZeroGrad()
	for i := range s.GradB {
		s.GradB[i] = 0
	}
}

// ensureGrads allocates the bias gradient on first use; the transform
// allocates its own.
func (s *StructuredLinear) ensureGrads() {
	if s.GradB == nil {
		s.GradB = make([]float32, s.N)
	}
}

// Refresh forwards to the wrapped transform when it needs post-step sync.
func (s *StructuredLinear) Refresh() {
	if r, ok := s.T.(refresher); ok {
		r.Refresh()
	}
}

// Flops forwards to the transform plus the bias adds.
func (s *StructuredLinear) Flops(batch int) float64 {
	return s.T.Flops(batch) + float64(s.N)*float64(batch)
}

// ReLU is the activation of Table 3.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// ParamCount implements Layer.
func (r *ReLU) ParamCount() int { return 0 }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	return relu(x, r.mask)
}

// Infer implements Layer: Forward without recording the activation mask.
func (r *ReLU) Infer(x *tensor.Matrix) *tensor.Matrix { return relu(x, nil) }

// relu returns microkernel.ReLU of x, and records in mask, when it is
// not nil, which elements it kept: a kept element is > 0, and every
// other one is +0, so its bits say which it was.
func relu(x *tensor.Matrix, mask []bool) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	y := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		y[i] = microkernel.ReLU(v)
		if mask != nil {
			mask[i] = math.Float32bits(y[i]) != 0
		}
	}
	return out
}

// Backward implements Layer: dY where Forward kept its input, +0
// elsewhere.
func (r *ReLU) Backward(dY *tensor.Matrix) *tensor.Matrix {
	if len(r.mask) != len(dY.Data) {
		panic("nn: relu Backward shape mismatch (Forward not called?)")
	}
	out := tensor.New(dY.Rows, dY.Cols)
	y, mask := out.Data[:len(dY.Data)], r.mask[:len(dY.Data)]
	for i, v := range dY.Data {
		y[i] = microkernel.Keep(v, mask[i])
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() (params, grads [][]float32) { return nil, nil }

// ZeroGrad implements Layer.
func (r *ReLU) ZeroGrad() {}
