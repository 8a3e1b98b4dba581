package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/factorize"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// plantWeight overwrites the first-layer weight of a registered dense
// model so the compression tests control how compressible it is.
func plantWeight(m *Model, w *tensor.Matrix) { m.net.Layers[0].(*nn.Dense).W = w }

func predictScores(t *testing.T, m *Model, features []float32) []float32 {
	t.Helper()
	p, err := m.Predict(context.Background(), features)
	if err != nil {
		t.Fatal(err)
	}
	return p.Scores
}

func scoresRelErr(a, b []float32) float64 {
	var diff, norm float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		diff += d * d
		norm += float64(a[i]) * float64(a[i])
	}
	return math.Sqrt(diff / norm)
}

func TestRegisterCompressedLowRankServesWithinTolerance(t *testing.T) {
	reg := NewRegistry(Options{})
	defer reg.Close()
	src, err := reg.Register(spec("shl-dense", nn.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	// Plant a rank-4 first layer: the eps=0.05 factorization recovers it
	// almost exactly at a fraction of the parameters.
	rng := rand.New(rand.NewSource(20))
	u := tensor.GaussianMatrix(src.spec.N, 4, rng)
	v := tensor.GaussianMatrix(4, src.spec.N, rng)
	plantWeight(src, tensor.MatMul(u, v))

	const eps = 0.05
	comp, reports, err := reg.RegisterCompressed("shl-lr-eps0.05", "shl-dense",
		nn.CompressOptions{Tolerance: eps, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Kind != factorize.KindLowRank {
		t.Fatalf("first layer kind = %v, want lowrank", reports[0].Kind)
	}
	if comp.Info().Params >= src.Info().Params {
		t.Fatalf("compressed params %d not below dense %d", comp.Info().Params, src.Info().Params)
	}
	if !strings.HasPrefix(comp.Info().Method, "compressed/lowrank") {
		t.Fatalf("method label %q", comp.Info().Method)
	}

	// Served predictions stay within the compression tolerance.
	features := make([]float32, src.spec.N)
	for i := range features {
		features[i] = rng.Float32()
	}
	want := predictScores(t, src, features)
	got := predictScores(t, comp, features)
	if e := scoresRelErr(want, got); e > eps {
		t.Fatalf("served predictions deviate by %v (eps %v)", e, eps)
	}

	// The compressed variant must report strictly lower modelled IPU
	// memory than the dense original at the same batch size.
	denseCost, err := src.ModelledCost(8)
	if err != nil {
		t.Fatal(err)
	}
	compCost, err := comp.ModelledCost(8)
	if err != nil {
		t.Fatal(err)
	}
	if compCost.DeviceBytes >= denseCost.DeviceBytes {
		t.Fatalf("compressed device bytes %d not below dense %d",
			compCost.DeviceBytes, denseCost.DeviceBytes)
	}
	if !strings.HasPrefix(compCost.Workload, "lowrank") {
		t.Fatalf("compressed workload %q priced as the wrong layout", compCost.Workload)
	}
}

func TestRegisterCompressedButterflyLayout(t *testing.T) {
	reg := NewRegistry(Options{})
	defer reg.Close()
	src, err := reg.Register(spec("shl-dense", nn.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	bf := butterfly.New(src.spec.N, butterfly.Dense2x2, rng)
	bf.Perm = nil
	plantWeight(src, bf.Dense().Transpose())

	comp, reports, err := reg.RegisterCompressed("shl-bf-eps0.05", "shl-dense",
		nn.CompressOptions{Tolerance: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Kind != factorize.KindButterfly {
		t.Fatalf("first layer kind = %v, want butterfly", reports[0].Kind)
	}
	if comp.Info().Method != "compressed/butterfly" {
		t.Fatalf("method label %q", comp.Info().Method)
	}
	cost, err := comp.ModelledCost(4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(cost.Workload, "butterflymm") && !strings.Contains(cost.Workload, "butterfly") {
		t.Fatalf("workload %q not priced as butterfly", cost.Workload)
	}
	denseCost, err := src.ModelledCost(4)
	if err != nil {
		t.Fatal(err)
	}
	if cost.DeviceBytes >= denseCost.DeviceBytes {
		t.Fatalf("butterfly device bytes %d not below dense %d",
			cost.DeviceBytes, denseCost.DeviceBytes)
	}
}

func TestRegisterCompressedUnknownSource(t *testing.T) {
	reg := NewRegistry(Options{})
	defer reg.Close()
	if _, _, err := reg.RegisterCompressed("x", "nope", nn.CompressOptions{Tolerance: 0.1}); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, _, err := reg.RegisterCompressed("", "nope", nn.CompressOptions{Tolerance: 0.1}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRegisterCompressedStructuredSourceKeepsSpecPricing(t *testing.T) {
	// Compress passes a non-dense structured first layer (pixelfly)
	// through untouched: the "compressed" variant must keep the source's
	// method label and be priced by the pixelfly workload, not as dense.
	reg := NewRegistry(Options{})
	defer reg.Close()
	src, err := reg.Register(spec("shl-pf", nn.Pixelfly))
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := reg.RegisterCompressed("shl-pf-c", "shl-pf",
		nn.CompressOptions{Tolerance: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Info().Method != src.Info().Method {
		t.Fatalf("method label %q, want source's %q", comp.Info().Method, src.Info().Method)
	}
	cost, err := comp.ModelledCost(4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cost.Workload, "pixelfly") {
		t.Fatalf("workload %q not priced as pixelfly", cost.Workload)
	}
}

func TestRegisterCompressedIncompressibleFallsBackToDense(t *testing.T) {
	// Random dense weights at a tight tolerance: nothing beats the dense
	// layer, so the "compressed" model keeps it and prices as dense.
	reg := NewRegistry(Options{})
	defer reg.Close()
	src, err := reg.Register(spec("shl-dense", nn.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := reg.RegisterCompressed("shl-tight", "shl-dense",
		nn.CompressOptions{Tolerance: 0.001, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Info().Method != "compressed/dense" {
		t.Fatalf("method label %q, want compressed/dense", comp.Info().Method)
	}
	if comp.Info().Params > src.Info().Params {
		t.Fatalf("params grew: %d -> %d", src.Info().Params, comp.Info().Params)
	}
}

// TestRegisterCompressedAllocatesGradientsOnFirstUse checks the layers
// Compress builds, as registered models: the factorised butterfly, and a
// head that either factorises into a FactorizedDense or is kept as a
// cloned Dense. Once registered they hold no gradient buffers, ZeroGrad
// allocates none, Params returns zeroed ones as long as the parameters,
// and a Forward and Backward give the same gradients, bit for bit, whether
// Params (as nn.NewSGD calls it) or Backward allocated them.
func TestRegisterCompressedAllocatesGradientsOnFirstUse(t *testing.T) {
	reg := NewRegistry(Options{})
	defer reg.Close()
	src, err := reg.Register(spec("shl-dense", nn.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	n := src.spec.N
	rng := rand.New(rand.NewSource(22))
	bf := butterfly.New(n, butterfly.Dense2x2, rng)
	bf.Perm = nil
	plantWeight(src, bf.Dense().Transpose())
	src.net.Layers[2].(*nn.Dense).W = tensor.MatMul(tensor.GaussianMatrix(n, 2, rng), tensor.GaussianMatrix(2, 10, rng))
	x := tensor.New(3, n)
	x.FillRandom(rng, 1)
	dY := tensor.New(3, 10)
	dY.FillRandom(rng, 1)
	for _, c := range []struct {
		minParams int // above the head's 650 parameters keeps it dense
		head      string
	}{{0, "*nn.FactorizedDense"}, {1000, "*nn.Dense"}} {
		compress := func(name string) *nn.Sequential {
			m, _, err := reg.RegisterCompressed(name, "shl-dense",
				nn.CompressOptions{Tolerance: 0.05, Seed: 3, MinParams: c.minParams})
			if err != nil {
				t.Fatal(err)
			}
			if m.Info().Method != "compressed/butterfly" {
				t.Fatalf("method label %q, want compressed/butterfly", m.Info().Method)
			}
			if got := fmt.Sprintf("%T", m.net.Layers[2]); got != c.head {
				t.Fatalf("head is %s, want %s", got, c.head)
			}
			return m.net
		}
		net := compress("viaParams")
		if holdsGradients(net) {
			t.Fatalf("%s head: a registered model holds gradient buffers", c.head)
		}
		if a := testing.AllocsPerRun(10, net.ZeroGrad); a != 0 || holdsGradients(net) {
			t.Fatalf("%s head: ZeroGrad made %v allocations (buffers held after: %v)", c.head, a, holdsGradients(net))
		}
		params, grads := net.Params()
		for i := range params {
			if len(grads[i]) != len(params[i]) {
				t.Fatalf("%s head: gradient group %d has %d values for %d parameters", c.head, i, len(grads[i]), len(params[i]))
			}
			for _, g := range grads[i] {
				if g != 0 {
					t.Fatalf("%s head: gradient group %d starts at %v", c.head, i, g)
				}
			}
		}
		viaBackward := compress("viaBackward")
		for _, m := range []*nn.Sequential{net, viaBackward} {
			m.Forward(x)
			m.Backward(dY)
		}
		// grads are the slices an optimizer bound before the step.
		_, got := viaBackward.Params()
		for i := range grads {
			for j := range grads[i] {
				if math.Float32bits(got[i][j]) != math.Float32bits(grads[i][j]) {
					t.Fatalf("%s head: gradient group %d [%d] = %v allocated by Backward, %v by Params", c.head, i, j, got[i][j], grads[i][j])
				}
			}
		}
	}
}

// holdsGradients reports whether any layer of a compressed SHL holds a
// gradient buffer.
func holdsGradients(net *nn.Sequential) bool {
	for _, l := range net.Layers {
		switch l := l.(type) {
		case *nn.Dense:
			if l.GradW != nil || l.GradB != nil {
				return true
			}
		case *nn.FactorizedDense:
			if l.GradA != nil || l.GradB != nil || l.GradBias != nil {
				return true
			}
		case *nn.StructuredLinear:
			if l.GradB != nil {
				return true
			}
			for _, f := range l.T.(*butterfly.Butterfly).Factors {
				if f.GradA != nil || f.GradB != nil || f.GradC != nil || f.GradD != nil || f.GradTheta != nil {
					return true
				}
			}
		}
	}
	return false
}
