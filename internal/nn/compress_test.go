package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/factorize"
	"repro/internal/tensor"
)

// relOutErr measures ‖a − b‖_F / ‖a‖_F for two output matrices.
func relOutErr(a, b *tensor.Matrix) float64 {
	return tensor.Sub(a, b).FrobeniusNorm() / a.FrobeniusNorm()
}

func TestCompressRecoversButterflyLayer(t *testing.T) {
	// Plant an exact identity-permutation butterfly in the first dense
	// layer: Compress must swap it for a butterfly operator and the
	// compressed model must reproduce the original predictions.
	const n, classes = 32, 4
	rng := rand.New(rand.NewSource(11))
	model := BuildSHL(Baseline, n, classes, rng)
	src := butterfly.New(n, butterfly.Dense2x2, rng)
	src.Perm = nil
	model.Layers[0].(*Dense).W = src.Dense().Transpose()

	compressed, reports, err := model.Compress(CompressOptions{Tolerance: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Kind != factorize.KindButterfly {
		t.Fatalf("first layer kind = %v, want butterfly (reports %+v)", reports[0].Kind, reports)
	}
	if reports[0].ParamsAfter >= reports[0].ParamsBefore {
		t.Fatalf("no parameter saving: %d -> %d", reports[0].ParamsBefore, reports[0].ParamsAfter)
	}
	x := tensor.New(8, n)
	x.FillRandom(rng, 1)
	want := model.Infer(x)
	got := compressed.Infer(x)
	if e := relOutErr(want, got); e > 0.02 {
		t.Fatalf("compressed predictions deviate by %v", e)
	}
}

func TestCompressRecoversLowRankLayer(t *testing.T) {
	const n, classes, rank = 32, 4, 3
	rng := rand.New(rand.NewSource(12))
	model := BuildSHL(Baseline, n, classes, rng)
	u := tensor.GaussianMatrix(n, rank, rng)
	v := tensor.GaussianMatrix(rank, n, rng)
	model.Layers[0].(*Dense).W = tensor.MatMul(u, v)

	compressed, reports, err := model.Compress(CompressOptions{Tolerance: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Kind != factorize.KindLowRank {
		t.Fatalf("first layer kind = %v, want lowrank", reports[0].Kind)
	}
	if reports[0].Rank != rank {
		t.Fatalf("recovered rank %d, want %d", reports[0].Rank, rank)
	}
	x := tensor.New(8, n)
	x.FillRandom(rng, 1)
	if e := relOutErr(model.Infer(x), compressed.Infer(x)); e > 0.02 {
		t.Fatalf("compressed predictions deviate by %v", e)
	}
}

func TestCompressNeverIncreasesSizeBytes(t *testing.T) {
	// Property: for any model and tolerance, Compress must not grow the
	// parameter footprint, and every reported error must meet the
	// tolerance.
	for seed := int64(0); seed < 5; seed++ {
		for _, tol := range []float64{0, 0.05, 0.3, 0.8} {
			rng := rand.New(rand.NewSource(seed))
			model := BuildSHL(Baseline, 32, 5, rng)
			compressed, reports, err := model.Compress(CompressOptions{Tolerance: tol, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if compressed.SizeBytes() > model.SizeBytes() {
				t.Fatalf("seed=%d tol=%v: size grew %d -> %d bytes",
					seed, tol, model.SizeBytes(), compressed.SizeBytes())
			}
			for _, r := range reports {
				if r.RelError > tol*1.01 {
					t.Fatalf("seed=%d tol=%v: layer %d error %v over tolerance",
						seed, tol, r.Index, r.RelError)
				}
				if r.ParamsAfter > r.ParamsBefore {
					t.Fatalf("seed=%d tol=%v: layer %d params grew %d -> %d",
						seed, tol, r.Index, r.ParamsBefore, r.ParamsAfter)
				}
			}
		}
	}
}

func TestCompressLeavesStructuredLayersAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	model := BuildSHL(Butterfly, 16, 3, rng)
	compressed, reports, err := model.Compress(CompressOptions{Tolerance: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if compressed.Layers[0] != model.Layers[0] {
		t.Fatal("structured first layer was not passed through")
	}
	// Only the dense classifier head is reported.
	if len(reports) != 1 || reports[0].Index != 2 {
		t.Fatalf("reports = %+v, want exactly the dense head", reports)
	}
}

func TestCompressMinParamsSkipsSmallLayers(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(14))
	model := BuildSHL(Baseline, n, 4, rng)
	// Plant a rank-1 first layer so compression would otherwise fire.
	u := tensor.GaussianMatrix(n, 1, rng)
	v := tensor.GaussianMatrix(1, n, rng)
	model.Layers[0].(*Dense).W = tensor.MatMul(u, v)
	compressed, reports, err := model.Compress(CompressOptions{
		Tolerance: 0.1, MinParams: n*n + n + 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Kind != factorize.KindDense {
			t.Fatalf("layer %d compressed despite MinParams", r.Index)
		}
	}
	if compressed.ParamCount() != model.ParamCount() {
		t.Fatal("params changed despite MinParams")
	}
}

func TestFactorizedDenseMatchesDenseEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := tensor.GaussianMatrix(6, 2, rng)
	b := tensor.GaussianMatrix(2, 4, rng)
	fd := &FactorizedDense{In: 6, Out: 4, Rank: 2, A: a, B: b, Bias: []float32{0.1, -0.2, 0.3, 0}}
	d := &Dense{In: 6, Out: 4, W: tensor.MatMul(a, b), Bias: fd.Bias}
	x := tensor.New(5, 6)
	x.FillRandom(rng, 1)
	if e := relOutErr(d.Infer(x), fd.Infer(x)); e > 1e-5 {
		t.Fatalf("factorized dense deviates from dense equivalent by %v", e)
	}
	if got, want := fd.ParamCount(), 2*(6+4)+4; got != want {
		t.Fatalf("param count %d, want %d", got, want)
	}
}

func TestFactorizedDenseGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	fd := &FactorizedDense{In: 5, Out: 3, Rank: 2,
		A: tensor.GaussianMatrix(5, 2, rng), B: tensor.GaussianMatrix(2, 3, rng),
		Bias: make([]float32, 3)}
	x := tensor.New(4, 5)
	x.FillRandom(rng, 1)
	labels := []int{0, 1, 2, 1}
	loss := func() float64 {
		l, _ := SoftmaxCrossEntropy(fd.Forward(x), labels)
		return l
	}
	fd.ZeroGrad()
	logits := fd.Forward(x)
	_, dL := SoftmaxCrossEntropy(logits, labels)
	fd.Backward(dL)
	params, grads := fd.Params()
	const h = 1e-2
	for pi, ps := range params {
		for j := range ps {
			orig := ps[j]
			ps[j] = orig + h
			up := loss()
			ps[j] = orig - h
			dn := loss()
			ps[j] = orig
			num := (up - dn) / (2 * h)
			got := float64(grads[pi][j])
			if math.Abs(num-got) > 5e-2*(1+math.Abs(num)) {
				t.Fatalf("grad[%d][%d]: analytic %v numeric %v", pi, j, got, num)
			}
		}
	}
}
