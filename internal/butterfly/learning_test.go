package butterfly

import (
	"math/rand"
	"testing"

	"repro/internal/hadamard"
	"repro/internal/tensor"
)

// The premise of Dao et al. (and of the paper's compression argument): a
// butterfly factorization can *learn* a fast transform from input/output
// examples. Here gradient descent recovers the Walsh–Hadamard transform
// from random probes — the loss must collapse by orders of magnitude and
// the learned operator must generalize to unseen inputs.
func TestButterflyLearnsHadamardTransform(t *testing.T) {
	const (
		n        = 16
		batch    = 64
		steps    = 1200
		lr       = 0.05
		momentum = 0.9
	)
	rng := rand.New(rand.NewSource(99))
	// Identity init: deep multiplicative parameterizations train reliably
	// from the identity (Dao et al.'s recipe), not from random rotations.
	bf := NewIdentity(n, Dense2x2)
	bf.Perm = nil // WHT needs no input permutation

	target := func(x *tensor.Matrix) *tensor.Matrix {
		out := x.Clone()
		for r := 0; r < out.Rows; r++ {
			row := out.Row(r)
			hadamard.Transform(row)
			for i := range row {
				row[i] /= 4 // orthonormal scaling (sqrt(16)) keeps training stable
			}
		}
		return out
	}

	mse := func(pred, want *tensor.Matrix) (float64, *tensor.Matrix) {
		grad := tensor.New(pred.Rows, pred.Cols)
		var loss float64
		inv := 1 / float64(pred.Rows*pred.Cols)
		for i := range pred.Data {
			d := float64(pred.Data[i] - want.Data[i])
			loss += d * d * inv
			grad.Data[i] = float32(2 * d * inv)
		}
		return loss, grad
	}

	params, grads := bf.Params()
	vel := make([][]float32, len(params))
	for i := range params {
		vel[i] = make([]float32, len(params[i]))
	}
	var first, last float64
	for step := 0; step < steps; step++ {
		x := tensor.New(batch, n)
		x.FillRandom(rng, 1)
		want := target(x)
		bf.ZeroGrad()
		pred := bf.Forward(x)
		loss, grad := mse(pred, want)
		if step == 0 {
			first = loss
		}
		last = loss
		bf.Backward(grad, true)
		for pi := range params {
			for j := range params[pi] {
				vel[pi][j] = momentum*vel[pi][j] - lr*grads[pi][j]
				params[pi][j] += vel[pi][j]
			}
		}
	}
	if last > first/100 {
		t.Fatalf("butterfly failed to learn the WHT: loss %v -> %v", first, last)
	}

	// Generalization: unseen probes map correctly.
	x := tensor.New(8, n)
	x.FillRandom(rng, 1)
	pred := bf.Apply(x)
	want := target(x)
	if d := tensor.MaxAbsDiff(pred, want); d > 0.15 {
		t.Fatalf("learned transform inaccurate on fresh inputs: maxdiff %v", d)
	}
}

// A rank-1 low-rank layer cannot represent the WHT no matter how long it
// trains (its image is one-dimensional) — the expressiveness gap behind
// Table 4's accuracy column. Training butterfly vs truncating to one
// butterfly factor shows the factorization needs all log2(N) stages.
func TestSingleFactorCannotLearnHadamard(t *testing.T) {
	const (
		n     = 16
		batch = 64
		steps = 400
		lr    = 0.02
	)
	rng := rand.New(rand.NewSource(100))
	bf := New(n, Dense2x2, rng)
	bf.Perm = nil
	bf.Factors = bf.Factors[:1] // cripple: one stage only

	var last float64
	for step := 0; step < steps; step++ {
		x := tensor.New(batch, n)
		x.FillRandom(rng, 1)
		want := x.Clone()
		for r := 0; r < want.Rows; r++ {
			row := want.Row(r)
			hadamard.Transform(row)
			for i := range row {
				row[i] /= 4
			}
		}
		bf.ZeroGrad()
		pred := bf.Forward(x)
		grad := tensor.New(pred.Rows, pred.Cols)
		last = 0
		inv := 1 / float64(pred.Rows*pred.Cols)
		for i := range pred.Data {
			d := float64(pred.Data[i] - want.Data[i])
			last += d * d * inv
			grad.Data[i] = float32(2 * d * inv)
		}
		bf.Backward(grad, true)
		params, grads := bf.Params()
		for pi := range params {
			for j := range params[pi] {
				params[pi][j] -= lr * grads[pi][j]
			}
		}
	}
	if last < 0.01 {
		t.Fatalf("a single butterfly factor should not express the WHT (loss %v)", last)
	}
}
