package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/factorize"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/tensor/microkernel"
)

func TestDenseForwardKnown(t *testing.T) {
	d := &Dense{In: 2, Out: 2, W: tensor.FromSlice(2, 2, []float32{1, 2, 3, 4}), Bias: []float32{10, 20}}
	x := tensor.FromSlice(1, 2, []float32{1, 1})
	y := d.Forward(x)
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("dense forward = %v, want [14 26]", y.Data)
	}
}

func TestDenseGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(6, 4, rng)
	x := tensor.New(3, 6)
	x.FillRandom(rng, 1)
	r := tensor.New(3, 4)
	r.FillRandom(rng, 1)
	loss := func() float64 {
		y := d.Forward(x)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i]) * float64(r.Data[i])
		}
		return s
	}
	d.ZeroGrad()
	d.Forward(x)
	dx := d.Backward(r)
	const h = 1e-3
	// input grads
	for i := 0; i < len(x.Data); i += 4 {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := loss()
		x.Data[i] = orig - h
		dn := loss()
		x.Data[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-float64(dx.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("dense input grad[%d]: %v vs %v", i, dx.Data[i], num)
		}
	}
	// weight grads
	params, grads := d.Params()
	for pi, ps := range params {
		for j := 0; j < len(ps); j += 7 {
			orig := ps[j]
			ps[j] = orig + h
			up := loss()
			ps[j] = orig - h
			dn := loss()
			ps[j] = orig
			num := (up - dn) / (2 * h)
			if math.Abs(num-float64(grads[pi][j])) > 1e-2*(1+math.Abs(num)) {
				t.Fatalf("dense weight grad[%d][%d]: %v vs %v", pi, j, grads[pi][j], num)
			}
		}
	}
}

// refReLU is ReLU's reference loop, the oracle for its branch-free
// select: y keeps x[i] and mask is set where x[i] > 0, and dx keeps dy[i]
// where mask is set; every other element is +0.
func refReLU(x, dy []float32) (y, dx []float32, mask []bool) {
	y, dx, mask = make([]float32, len(x)), make([]float32, len(x)), make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			y[i], mask[i] = v, true
		}
	}
	for i, v := range dy {
		if mask[i] {
			dx[i] = v
		}
	}
	return y, dx, mask
}

// TestReLU holds Forward, Infer, Backward and the recorded mask to
// refReLU bit for bit, on the IEEE edge cases (±0, subnormals of both
// signs, ±Inf, NaN of both signs, the largest finite values) and on
// random values, with gradients that carry the same edge cases. On the
// same values it holds microkernel.ReLU, the one ReLU every kernel runs,
// and every fused epilogue that runs it, with and without a zero bias,
// to refReLU's outputs.
func TestReLU(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	edges := []float32{
		-1, 2, 0, 3, negZero,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest subnormals
		float32(math.Inf(1)), float32(math.Inf(-1)),
		nan, -nan, math.Float32frombits(0x7f800001), math.Float32frombits(0xffc00001),
		math.MaxFloat32, -math.MaxFloat32, math.Float32frombits(0x00800000), math.Float32frombits(0x80800000),
	}
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(4, 32)
	dy := tensor.New(4, 32)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
		dy.Data[i] = rng.Float32()*2 - 1
		if i < len(edges) {
			x.Data[i] = edges[i]
			dy.Data[len(x.Data)-1-i] = edges[i] // the edge cases as gradients, under random masks
		}
	}
	for i := range edges {
		dy.Data[i] = edges[len(edges)-1-i] // and under the edge cases' own masks
	}
	wantY, wantDX, wantMask := refReLU(x.Data, dy.Data)
	same := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("relu %s[%d] (x = %v, dy = %v) = %v (%#x), want %v (%#x)", what, i, x.Data[i], dy.Data[i],
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	r := NewReLU()
	same("Infer", r.Infer(x).Data, wantY)
	if r.mask != nil {
		t.Fatal("relu Infer recorded a mask")
	}
	same("Forward", r.Forward(x).Data, wantY)
	if !slices.Equal(r.mask, wantMask) {
		t.Fatalf("relu mask = %v, want %v", r.mask, wantMask)
	}
	same("Backward", r.Backward(dy).Data, wantDX)

	// Each kernel below sees x as its pre-activation: a product adds each
	// value once onto +0 (times 1), and a zero bias adds +0, which changes
	// only −0, to +0, and ReLU maps both to +0.
	rows, cols := x.Rows, x.Cols
	zeroBias := make([]float32, cols)
	one := tensor.FromSlice(1, 1, []float32{1})
	diag := make([][2]int, cols)
	for i := range diag {
		diag[i] = [2]int{i, i}
	}
	eye, err := sparse.NewBSR(cols, cols, 1, diag)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eye.Blocks {
		eye.Blocks[i] = 1
	}
	for _, bias := range [][]float32{nil, zeroBias} {
		for _, k := range []struct {
			name string
			run  func(dst *tensor.Matrix)
		}{
			{"microkernel.ReLU", func(dst *tensor.Matrix) {
				for i, v := range x.Data {
					dst.Data[i] = microkernel.ReLU(v)
				}
			}},
			{"tensor.ActReLU.Apply", func(dst *tensor.Matrix) {
				for i, v := range x.Data {
					dst.Data[i] = tensor.ActReLU.Apply(v)
				}
			}},
			{"microkernel.EpilogueRow", func(dst *tensor.Matrix) {
				copy(dst.Data, x.Data)
				for i := 0; i < rows; i++ {
					microkernel.EpilogueRow(dst.Row(i), bias, true)
				}
			}},
			{"reluInto", func(dst *tensor.Matrix) { reluInto(dst, x, nil) }},
			{"reluCols", func(dst *tensor.Matrix) {
				reluCols(dst, x, nil, 0, cols/2)
				reluCols(dst, x, nil, cols/2, cols)
			}},
			{"tensor.ApplyBiasActInto", func(dst *tensor.Matrix) { tensor.ApplyBiasActInto(dst, x, bias, tensor.ActReLU) }},
			{"tensor.AddInPlaceColsBiasAct", func(dst *tensor.Matrix) {
				copy(dst.Data, x.Data)
				tensor.AddInPlaceColsBiasAct(dst, 0, tensor.New(rows, cols), bias, tensor.ActReLU)
			}},
			{"tensor.MatMulColsBiasActInto", func(dst *tensor.Matrix) {
				for i := 0; i < rows; i++ {
					d := tensor.New(1, cols)
					tensor.MatMulColsBiasActInto(d, 0, one, tensor.FromSlice(1, cols, x.Row(i)), 0, cols, bias, tensor.ActReLU)
					copy(dst.Row(i), d.Data)
				}
			}},
			{"tensor.MatMulPackedColsBiasActInto", func(dst *tensor.Matrix) {
				for i := 0; i < rows; i++ {
					d := tensor.New(1, cols)
					tensor.MatMulPackedColsBiasActInto(d, one, tensor.Pack(tensor.FromSlice(1, cols, x.Row(i))), 0, cols, bias, tensor.ActReLU)
					copy(dst.Row(i), d.Data)
				}
			}},
			{"sparse.BSR.MulInto", func(dst *tensor.Matrix) { eye.MulInto(dst, 0, x, 0, eye.BlockRows, bias, tensor.ActReLU) }},
		} {
			got := tensor.New(rows, cols)
			k.run(got)
			same(fmt.Sprintf("%s (bias %v)", k.name, bias != nil), got.Data, wantY)
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// uniform logits over 4 classes: loss = ln(4)
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// gradient rows sum to zero
	for r := 0; r < 2; r++ {
		var s float64
		for _, v := range grad.Row(r) {
			s += float64(v)
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("grad row %d sums to %v", r, s)
		}
	}
}

func TestSoftmaxCrossEntropyGradNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.New(3, 5)
	logits.FillRandom(rng, 2)
	labels := []int{1, 4, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const h = 1e-3
	for i := 0; i < len(logits.Data); i += 2 {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		up, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		dn, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-float64(grad.Data[i])) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("CE grad[%d]: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad label did not panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(1, 3), []int{3})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 2, 1})
	got := Accuracy(logits, []int{0, 1, 1})
	if math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("accuracy = %v, want 2/3", got)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize ||W||² via a model with one dense layer fed zeros and
	// L2-style gradient injected manually; simpler: check the update rule.
	rng := rand.New(rand.NewSource(3))
	d := NewDense(2, 2, rng)
	model := NewSequential(d)
	opt := NewSGD(model, 0.1, 0.9)
	// With grad = p (gradient of ½||p||²), iterates must decay.
	norm0 := d.W.FrobeniusNorm()
	for it := 0; it < 200; it++ {
		model.ZeroGrad()
		copy(d.GradW.Data, d.W.Data)
		copy(d.GradB, d.Bias)
		opt.Step()
	}
	if d.W.FrobeniusNorm() > norm0*1e-3 {
		t.Fatalf("SGD failed to shrink weights: %v -> %v", norm0, d.W.FrobeniusNorm())
	}
}

func TestSGDMomentumUpdateRule(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense(1, 1, rng)
	model := NewSequential(d)
	opt := NewSGD(model, 0.5, 0.9)
	d.W.Data[0] = 1
	// constant gradient 1: v1 = -0.5, p = 0.5; v2 = -0.95, p = -0.45
	d.GradW.Data[0] = 1
	opt.Step()
	if math.Abs(float64(d.W.Data[0])-0.5) > 1e-6 {
		t.Fatalf("after step1 p = %v, want 0.5", d.W.Data[0])
	}
	d.GradW.Data[0] = 1
	opt.Step()
	if math.Abs(float64(d.W.Data[0])+0.45) > 1e-6 {
		t.Fatalf("after step2 p = %v, want -0.45", d.W.Data[0])
	}
}

// Table 4's NParams column, reproduced exactly (butterfly off by 4 — the
// paper counts 16,390; our rotation parameterization yields 16,394, see
// EXPERIMENTS.md).
func TestSHLParamCountsMatchTable4(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		m    Method
		want int
	}{
		{Baseline, 1059850},
		{Butterfly, 16394},
		{Fastfood, 14346},
		{Circulant, 12298},
		{LowRank, 13322},
		{Pixelfly, 404490},
	}
	for _, tc := range cases {
		model := BuildSHL(tc.m, 1024, 10, rng)
		if got := model.ParamCount(); got != tc.want {
			t.Errorf("%v: NParams = %d, want %d", tc.m, got, tc.want)
		}
	}
}

func TestButterflyCompressionRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := BuildSHL(Baseline, 1024, 10, rng).ParamCount()
	bf := BuildSHL(Butterfly, 1024, 10, rng).ParamCount()
	ratio := 1 - float64(bf)/float64(base)
	if ratio < 0.984 || ratio > 0.986 {
		t.Fatalf("compression ratio %v, want ~0.985 (paper's 98.5%%)", ratio)
	}
}

func TestEndToEndGradientSHL(t *testing.T) {
	// Full-model numerical gradient check on a miniature SHL.
	rng := rand.New(rand.NewSource(7))
	model := BuildSHL(Butterfly, 16, 3, rng)
	x := tensor.New(4, 16)
	x.FillRandom(rng, 1)
	labels := []int{0, 1, 2, 1}
	loss := func() float64 {
		l, _ := SoftmaxCrossEntropy(model.Forward(x), labels)
		return l
	}
	model.ZeroGrad()
	logits := model.Forward(x)
	_, dL := SoftmaxCrossEntropy(logits, labels)
	model.Backward(dL)
	params, grads := model.Params()
	const h = 1e-2
	checked := 0
	for pi, ps := range params {
		step := len(ps)/5 + 1
		for j := 0; j < len(ps); j += step {
			orig := ps[j]
			ps[j] = orig + h
			model.Refresh()
			up := loss()
			ps[j] = orig - h
			model.Refresh()
			dn := loss()
			ps[j] = orig
			model.Refresh()
			num := (up - dn) / (2 * h)
			got := float64(grads[pi][j])
			if math.Abs(num-got) > 5e-2*(1+math.Abs(num)) {
				t.Fatalf("model grad[%d][%d]: analytic %v numeric %v", pi, j, got, num)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d parameters checked", checked)
	}
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	cfg := dataset.Config{
		Name: "tiny", Classes: 4, Side: 8,
		Train: 240, Test: 80, ValFraction: 0.15,
		AtomsPerClass: 3, BlobsPerClass: 1,
		NoiseStd: 0.3, GainStd: 0.3, Seed: 11,
	}
	ds := dataset.Generate(cfg)
	rng := rand.New(rand.NewSource(8))
	model := BuildSHL(Baseline, 64, 4, rng)
	before := Evaluate(model, ds.XTest, ds.YTest)
	res := Train(model, ds, TrainConfig{Epochs: 12, BatchSize: 25, LR: 0.05, Momentum: 0.9, Seed: 9})
	if res.TestAccuracy < 0.5 {
		t.Fatalf("trained accuracy %v too low (before: %v)", res.TestAccuracy, before)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0] {
		t.Fatalf("loss did not decrease: %v", res.TrainLoss)
	}
	// 240 − 15% validation = 204 train rows → ceil(204/25) = 9 batches/epoch.
	if res.Steps != 12*9 {
		t.Fatalf("steps = %d, want 108", res.Steps)
	}
}

func TestStructuredMethodsTrainAboveChance(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	cfg := dataset.Config{
		Name: "tiny", Classes: 4, Side: 8,
		Train: 240, Test: 80, ValFraction: 0.15,
		AtomsPerClass: 3, BlobsPerClass: 1,
		NoiseStd: 0.3, GainStd: 0.3, Seed: 12,
	}
	ds := dataset.Generate(cfg)
	for _, m := range []Method{Butterfly, Fastfood, Circulant} {
		rng := rand.New(rand.NewSource(10))
		var model *Sequential
		if m == Pixelfly {
			continue // paper config needs n=1024
		}
		model = BuildSHL(m, 64, 4, rng)
		res := Train(model, ds, TrainConfig{Epochs: 10, BatchSize: 25, LR: 0.05, Momentum: 0.9, Seed: 13})
		if res.TestAccuracy < 0.3 {
			t.Errorf("%v: accuracy %v barely above chance", m, res.TestAccuracy)
		}
	}
}

func TestPaperHyperparamsTable3(t *testing.T) {
	h := PaperHyperparams()
	if h.LearningRate != 0.001 || h.Momentum != 0.9 || h.BatchSize != 50 ||
		h.ValFraction != 0.15 || h.Activation != "ReLU" ||
		h.Loss != "Cross-Entropy" || h.Optimizer != "SGD" {
		t.Fatalf("hyperparameters diverge from Table 3: %+v", h)
	}
}

func TestEvaluateChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	model := BuildSHL(Baseline, 16, 2, rng)
	x := tensor.New(403, 16) // not a multiple of the chunk size
	x.FillRandom(rng, 1)
	y := make([]int, 403)
	acc := Evaluate(model, x, y)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
}

// TestGradientsAllocatedOnFirstUse pins when a layer holds gradient
// buffers: none once built or after ZeroGrad, zeroed ones as long as their
// parameters from Params, and the same gradients, bit for bit, after
// Forward and Backward whether Params (as NewSGD calls it) or Backward
// allocated them. The wrapped transforms' own buffers are checked in their
// packages.
func TestGradientsAllocatedOnFirstUse(t *testing.T) {
	const in, out = 8, 4
	src := NewDense(in, out, rand.New(rand.NewSource(40)))
	lr := factorize.LowRank(src.W.Transpose(), 2, rand.New(rand.NewSource(41)))
	for _, c := range []struct {
		name  string
		build func() Layer
	}{
		{"dense", func() Layer { return NewDense(in, out, rand.New(rand.NewSource(42))) }},
		{"cloned dense", func() Layer { return cloneDense(src) }},
		{"factorized dense", func() Layer { return newFactorizedDense(src, lr) }},
		{"structured", func() Layer {
			return NewStructuredLinear("circulant", in, baselines.NewCirculant(in, rand.New(rand.NewSource(43))))
		}},
	} {
		l := c.build()
		if !gradsAbsent(l) {
			t.Fatalf("%s: a new layer holds gradient buffers", c.name)
		}
		if a := testing.AllocsPerRun(10, l.ZeroGrad); a != 0 || !gradsAbsent(l) {
			t.Fatalf("%s: ZeroGrad made %v allocations (buffers absent after: %v)", c.name, a, gradsAbsent(l))
		}
		params, grads := l.Params()
		for i := range params {
			if len(grads[i]) != len(params[i]) {
				t.Fatalf("%s: gradient group %d has %d values for %d parameters", c.name, i, len(grads[i]), len(params[i]))
			}
			for _, g := range grads[i] {
				if g != 0 {
					t.Fatalf("%s: gradient group %d starts at %v", c.name, i, g)
				}
			}
		}
		rng := rand.New(rand.NewSource(44))
		x := tensor.New(3, in)
		x.FillRandom(rng, 1)
		y := l.Forward(x)
		dY := tensor.New(y.Rows, y.Cols)
		dY.FillRandom(rng, 1)
		l.Backward(dY)
		viaBackward := c.build()
		viaBackward.Forward(x)
		viaBackward.Backward(dY)
		// grads are the slices an optimizer bound before the step.
		_, got := viaBackward.Params()
		for i := range grads {
			for j := range grads[i] {
				if math.Float32bits(got[i][j]) != math.Float32bits(grads[i][j]) {
					t.Fatalf("%s: gradient group %d [%d] = %v allocated by Backward, %v by Params", c.name, i, j, got[i][j], grads[i][j])
				}
			}
		}
	}
}

// gradsAbsent reports whether a layer holds none of its own gradient
// buffers.
func gradsAbsent(l Layer) bool {
	switch l := l.(type) {
	case *Dense:
		return l.GradW == nil && l.GradB == nil
	case *FactorizedDense:
		return l.GradA == nil && l.GradB == nil && l.GradBias == nil
	case *StructuredLinear:
		return l.GradB == nil
	}
	panic(fmt.Sprintf("gradsAbsent: layer %T", l))
}
