package nn

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/baselines"
	"repro/internal/butterfly"
	"repro/internal/pixelfly"
	"repro/internal/tensor"
)

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a model from layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs all layers.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Infer runs all layers through their read-only inference path. Unlike
// Forward it mutates no layer state, so concurrent goroutines can share
// one model's weights — the contract the serving subsystem relies on.
// It must not run concurrently with training on the same model.
func (s *Sequential) Infer(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Infer(x)
	}
	return x
}

// Backward runs the layers in reverse, accumulating every parameter
// gradient, and stops at the first layer with parameters, which it runs
// without its input gradient: nothing reads the gradient with respect to
// the model's input, and the layers before that one have nothing to
// update.
func (s *Sequential) Backward(dY *tensor.Matrix) {
	first := slices.IndexFunc(s.Layers, func(l Layer) bool { return l.ParamCount() > 0 })
	for i := len(s.Layers) - 1; first >= 0 && i >= first; i-- {
		dY = s.Layers[i].backward(dY, i > first)
	}
}

// Params collects all (param, grad) pairs.
func (s *Sequential) Params() (params, grads [][]float32) {
	for _, l := range s.Layers {
		p, g := l.Params()
		params = append(params, p...)
		grads = append(grads, g...)
	}
	return params, grads
}

// ZeroGrad clears all gradients.
func (s *Sequential) ZeroGrad() {
	for _, l := range s.Layers {
		l.ZeroGrad()
	}
}

// ParamCount sums all layers — the NParams column of Table 4.
func (s *Sequential) ParamCount() int {
	total := 0
	for _, l := range s.Layers {
		total += l.ParamCount()
	}
	return total
}

// Refresh lets layers re-derive state after an optimizer step.
func (s *Sequential) Refresh() {
	for _, l := range s.Layers {
		if r, ok := l.(refresher); ok {
			r.Refresh()
		}
	}
}

// Method identifies a Table 4 row.
type Method int

const (
	// Baseline is the uncompressed dense SHL.
	Baseline Method = iota
	// Butterfly uses the rotation-parameterized butterfly factorization.
	Butterfly
	// Fastfood uses S·H·G·Π·H·B.
	Fastfood
	// Circulant uses an FFT circular-convolution weight.
	Circulant
	// LowRank uses a rank-1 factorization.
	LowRank
	// Pixelfly uses the flat block butterfly + low-rank layer.
	Pixelfly
)

// AllMethods lists the Table 4 rows in paper order.
var AllMethods = []Method{Baseline, Butterfly, Fastfood, Circulant, LowRank, Pixelfly}

func (m Method) String() string {
	switch m {
	case Baseline:
		return "Baseline"
	case Butterfly:
		return "Butterfly"
	case Fastfood:
		return "Fastfood"
	case Circulant:
		return "Circulant"
	case LowRank:
		return "Low-rank"
	case Pixelfly:
		return "Pixelfly"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// SHLHyperparams mirrors Table 3.
type SHLHyperparams struct {
	LearningRate float32
	Momentum     float32
	BatchSize    int
	ValFraction  float64
	Activation   string
	Loss         string
	Optimizer    string
}

// PaperHyperparams returns Table 3's values.
func PaperHyperparams() SHLHyperparams {
	return SHLHyperparams{
		LearningRate: 0.001, Momentum: 0.9, BatchSize: 50,
		ValFraction: 0.15, Activation: "ReLU", Loss: "Cross-Entropy",
		Optimizer: "SGD",
	}
}

// PaperPixelflyConfig is the pixelfly configuration whose SHL total is
// exactly Table 4's 404,490 parameters: blocks 64, butterfly network 16,
// low-rank 32 on the 1024-wide layer
// (80 blocks · 64² + 2·1024·32 = 393,216 structured parameters).
func PaperPixelflyConfig(n int) pixelfly.Config {
	return pixelfly.Config{N: n, BlockSize: 64, ButterflySize: 16, LowRank: 32}
}

// BuildSHL constructs the single-hidden-layer model of Table 4 for the
// given method: hidden = ReLU(W₁·x + b₁), logits = W₂·hidden + b₂, where
// W₁ (n×n) is the method's structured matrix and W₂ is always dense n×10.
func BuildSHL(method Method, n, classes int, rng *rand.Rand) *Sequential {
	var first Layer
	switch method {
	case Baseline:
		first = NewDense(n, n, rng)
	case Butterfly:
		first = NewStructuredLinear("butterfly", n, butterfly.New(n, butterfly.Rotation, rng))
	case Fastfood:
		first = NewStructuredLinear("fastfood", n, baselines.NewFastfood(n, rng))
	case Circulant:
		first = NewStructuredLinear("circulant", n, baselines.NewCirculant(n, rng))
	case LowRank:
		first = NewStructuredLinear("lowrank", n, baselines.NewLowRank(n, 1, rng))
	case Pixelfly:
		p, err := pixelfly.New(PaperPixelflyConfig(n), rng)
		if err != nil {
			panic(err)
		}
		first = NewStructuredLinear("pixelfly", n, p)
	default:
		panic(fmt.Sprintf("nn: unknown method %v", method))
	}
	return NewSequential(first, NewReLU(), NewDense(n, classes, rng))
}

// BuildSHLPixelfly builds the SHL with an explicit pixelfly configuration
// (Table 5's sweep).
func BuildSHLPixelfly(cfg pixelfly.Config, classes int, rng *rand.Rand) (*Sequential, error) {
	p, err := pixelfly.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	return NewSequential(
		NewStructuredLinear("pixelfly", cfg.N, p),
		NewReLU(),
		NewDense(cfg.N, classes, rng),
	), nil
}
