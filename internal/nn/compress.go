package nn

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/factorize"
	"repro/internal/tensor"
)

// CompressOptions tune the post-hoc compression pass.
type CompressOptions struct {
	// Tolerance is the per-layer relative Frobenius error target each
	// factorized weight must meet.
	Tolerance float64
	// Methods restricts the candidate operator families (nil = all).
	Methods []factorize.Kind
	// MinParams skips layers smaller than this parameter count (they are
	// kept dense); 0 compresses everything the tolerance allows.
	MinParams int
	// Seed drives the randomized sketching.
	Seed int64
}

// LayerReport records what Compress did to one dense layer.
type LayerReport struct {
	Index        int
	Layer        string // original layer name
	Kind         factorize.Kind
	Rank         int // low-rank rank (0 for other kinds)
	RelError     float64
	ParamsBefore int
	ParamsAfter  int
}

// SizeBytes returns the FP32 footprint of the model's parameters.
func (s *Sequential) SizeBytes() int { return 4 * s.ParamCount() }

// Compress returns a copy of the model with every dense layer replaced by
// the smallest factorized operator (butterfly chain or truncated-SVD
// low-rank) meeting opts.Tolerance, or kept dense when no structured
// operator is smaller — so the compressed model never has more parameters
// than the original. Dense-derived layers (factorized or kept) are fresh
// copies, making the compressed model safe to fine-tune; other structured
// layers are reused as-is, so their weights stay shared with the source
// model (concurrent *inference* on both models is safe, concurrent
// training is not). One report per dense layer describes the decision.
func (s *Sequential) Compress(opts CompressOptions) (*Sequential, []LayerReport, error) {
	if opts.Tolerance < 0 {
		return nil, nil, fmt.Errorf("nn: negative compression tolerance %v", opts.Tolerance)
	}
	out := make([]Layer, 0, len(s.Layers))
	var reports []LayerReport
	for i, l := range s.Layers {
		d, ok := l.(*Dense)
		if !ok {
			if _, isReLU := l.(*ReLU); isReLU {
				out = append(out, NewReLU()) // fresh activation state
			} else {
				out = append(out, l)
			}
			continue
		}
		rep := LayerReport{Index: i, Layer: d.Name(), Kind: factorize.KindDense,
			ParamsBefore: d.ParamCount(), ParamsAfter: d.ParamCount()}
		if d.ParamCount() < opts.MinParams {
			out = append(out, cloneDense(d))
			reports = append(reports, rep)
			continue
		}
		// Dense computes Y = X·W on row vectors; the factorized operators
		// act on column vectors, so the target matrix is M = Wᵀ.
		approx, err := factorize.FactorizeToTolerance(d.W.Transpose(), opts.Tolerance,
			factorize.Options{Methods: opts.Methods, Seed: opts.Seed + int64(i)})
		if err != nil {
			return nil, nil, fmt.Errorf("nn: compressing layer %d (%s): %w", i, d.Name(), err)
		}
		swapped := swapDense(d, approx)
		if swapped == nil || swapped.ParamCount() >= d.ParamCount() {
			out = append(out, cloneDense(d))
			reports = append(reports, rep)
			continue
		}
		rep.Kind = approx.Kind
		rep.RelError = approx.RelError
		rep.ParamsAfter = swapped.ParamCount()
		if approx.Kind == factorize.KindLowRank {
			rep.Rank = approx.LowRank.Rank()
		}
		out = append(out, swapped)
		reports = append(reports, rep)
	}
	return NewSequential(out...), reports, nil
}

// cloneDense deep-copies a dense layer's weights and bias, without its
// gradients (the copy allocates its own on first use), so the compressed
// model never aliases the source model's trainable state.
func cloneDense(d *Dense) *Dense {
	return &Dense{In: d.In, Out: d.Out, W: d.W.Clone(), Bias: append([]float32(nil), d.Bias...)}
}

// swapDense builds the replacement layer for a dense layer from its
// factorized approximation; nil means "keep the dense layer".
func swapDense(d *Dense, a *factorize.Approx) Layer {
	switch a.Kind {
	case factorize.KindButterfly:
		s := NewStructuredLinear("butterfly*", d.Out, a.Butterfly)
		copy(s.Bias, d.Bias)
		return s
	case factorize.KindLowRank:
		if d.In == d.Out {
			// Square: reuse the baseline low-rank transform. Its column
			// operator is U·Vᵀ and ours is P·Q, so U := P and V := Qᵀ.
			lr := baselines.NewLowRankFromFactors(a.LowRank.P, a.LowRank.Q.Transpose())
			s := NewStructuredLinear("lowrank*", d.Out, lr)
			copy(s.Bias, d.Bias)
			return s
		}
		return newFactorizedDense(d, a.LowRank)
	default:
		return nil
	}
}

// FactorizedDense is the rank-r replacement of a rectangular dense layer:
// Y = (X·A)·B + bias with A (in×r) and B (r×out), storing r·(in+out)
// weight parameters instead of in·out. It is fully differentiable, so a
// compressed model can be fine-tuned after the swap.
type FactorizedDense struct {
	In, Out, Rank int
	A             *tensor.Matrix // in×r
	B             *tensor.Matrix // r×out
	Bias          []float32

	// Gradients, nil until Backward or Params.
	GradA, GradB *tensor.Matrix
	GradBias     []float32

	xSaved, xaSaved *tensor.Matrix
}

// newFactorizedDense converts the column-operator factors M = P·Q
// (out×in) into the row-vector form A = Qᵀ, B = Pᵀ, keeping the bias.
func newFactorizedDense(d *Dense, f *factorize.LowRankFactors) *FactorizedDense {
	return &FactorizedDense{In: d.In, Out: d.Out, Rank: f.Rank(),
		A: f.Q.Transpose(), B: f.P.Transpose(),
		Bias: append([]float32(nil), d.Bias...)}
}

// Name implements Layer.
func (f *FactorizedDense) Name() string {
	return fmt.Sprintf("lowrank-dense(%dx%d r=%d)", f.In, f.Out, f.Rank)
}

// ParamCount implements Layer.
func (f *FactorizedDense) ParamCount() int { return f.Rank*(f.In+f.Out) + f.Out }

// Forward implements Layer.
func (f *FactorizedDense) Forward(x *tensor.Matrix) *tensor.Matrix {
	f.xSaved = x
	f.xaSaved = tensor.MatMulParallel(x, f.A)
	out := tensor.MatMulParallel(f.xaSaved, f.B)
	tensor.AddRowVector(out, f.Bias)
	return out
}

// Infer implements Layer: Forward without retaining state.
func (f *FactorizedDense) Infer(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != f.In {
		panic(fmt.Sprintf("nn: factorized dense input width %d != %d", x.Cols, f.In))
	}
	out := tensor.MatMulParallel(tensor.MatMulParallel(x, f.A), f.B)
	tensor.AddRowVector(out, f.Bias)
	return out
}

// Backward implements Layer.
func (f *FactorizedDense) Backward(dY *tensor.Matrix) *tensor.Matrix {
	if f.xSaved == nil {
		panic("nn: factorized dense Backward before Forward")
	}
	f.ensureGrads()
	for j, v := range tensor.ColSums(dY) {
		f.GradBias[j] += v
	}
	tensor.AddInPlace(f.GradB, tensor.MatMulParallel(f.xaSaved.Transpose(), dY))
	dXa := tensor.MatMulParallel(dY, f.B.Transpose())
	tensor.AddInPlace(f.GradA, tensor.MatMulParallel(f.xSaved.Transpose(), dXa))
	return tensor.MatMulParallel(dXa, f.A.Transpose())
}

// Params implements Layer.
func (f *FactorizedDense) Params() (params, grads [][]float32) {
	f.ensureGrads()
	return [][]float32{f.A.Data, f.B.Data, f.Bias},
		[][]float32{f.GradA.Data, f.GradB.Data, f.GradBias}
}

// ZeroGrad implements Layer.
func (f *FactorizedDense) ZeroGrad() {
	if f.GradA == nil {
		return
	}
	f.GradA.Zero()
	f.GradB.Zero()
	for i := range f.GradBias {
		f.GradBias[i] = 0
	}
}

// ensureGrads allocates the gradient buffers on first use.
func (f *FactorizedDense) ensureGrads() {
	if f.GradA == nil {
		f.GradA, f.GradB = tensor.New(f.In, f.Rank), tensor.New(f.Rank, f.Out)
		f.GradBias = make([]float32, f.Out)
	}
}

// Flops reports via the shared low-rank formula plus the bias adds.
func (f *FactorizedDense) Flops(batch int) float64 {
	return baselines.LowRankFlops(f.In, f.Out, f.Rank, batch) + float64(f.Out)*float64(batch)
}
