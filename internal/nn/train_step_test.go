package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// stepInput is a random batch of rows samples of width n with labels.
func stepInput(rows, n, classes int, seed int64) (*tensor.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(rows, n)
	x.FillRandom(rng, 1)
	y := make([]int, rows)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	return x, y
}

// gradCopy returns a copy of every gradient the model holds.
func gradCopy(m *Sequential) [][]float32 {
	_, grads := m.Params()
	out := make([][]float32, len(grads))
	for i, g := range grads {
		out[i] = slices.Clone(g)
	}
	return out
}

// sameBits fails the test unless got and want hold the same float32 bits.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestBackwardSkipsOnlyTheInputGradient holds Sequential.Backward, which
// runs the first layer with parameters without its input gradient, to
// calling every layer's Backward(dY) in turn: every parameter gradient
// must match bit for bit. It covers every family in AllMethods, pixelfly
// without its low-rank term and the compressed SHL with its
// FactorizedDense head, at GOMAXPROCS 1 and 4 and at 50 rows (the split
// kernels) and 10.
func TestBackwardSkipsOnlyTheInputGradient(t *testing.T) {
	const n, classes = 256, 10
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		skip, full := scratchNets(t, n, classes), scratchNets(t, n, classes)
		for name, a := range skip {
			b := full[name]
			for _, rows := range []int{50, 10} {
				x, y := stepInput(rows, n, classes, int64(rows))
				a.ZeroGrad()
				_, d := SoftmaxCrossEntropy(a.Forward(x), y)
				a.Backward(d)
				b.ZeroGrad()
				_, d = SoftmaxCrossEntropy(b.Forward(x), y)
				for i := len(b.Layers) - 1; i >= 0; i-- {
					d = b.Layers[i].Backward(d)
				}
				want := gradCopy(b)
				for i, g := range gradCopy(a) {
					sameBits(t, fmt.Sprintf("%s at GOMAXPROCS %d, %d rows: gradient group %d", name, procs, rows, i), g, want[i])
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// recordingLayer records the inputGrad of every backward call its layer
// gets.
type recordingLayer struct {
	Layer
	asked []bool
}

func (r *recordingLayer) backward(dY *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	r.asked = append(r.asked, inputGrad)
	return r.Layer.backward(dY, inputGrad)
}

// recordingTransform records the inputGrad of every Backward call its
// transform gets.
type recordingTransform struct {
	Transform
	asked []bool
}

func (r *recordingTransform) Backward(dY *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	r.asked = append(r.asked, inputGrad)
	return r.Transform.Backward(dY, inputGrad)
}

// TestBackwardAsksNoInputGradientOfFirstWeightedLayer runs
// Sequential.Backward on every SHL behind a leading ReLU: the ReLU, which
// has nothing to update, must not run; the first layer with parameters
// must be asked once, without its input gradient, and must pass that on
// to its transform; every later layer must be asked once for it.
func TestBackwardAsksNoInputGradientOfFirstWeightedLayer(t *testing.T) {
	const n, classes, rows = 64, 10, 7
	for name, net := range scratchNets(t, n, classes) {
		var rt *recordingTransform
		if s, ok := net.Layers[0].(*StructuredLinear); ok {
			rt = &recordingTransform{Transform: s.T}
			s.T = rt
		}
		layers := []*recordingLayer{{Layer: NewReLU()}}
		for _, l := range net.Layers {
			layers = append(layers, &recordingLayer{Layer: l})
		}
		model := NewSequential()
		for _, l := range layers {
			model.Layers = append(model.Layers, l)
		}
		x, y := stepInput(rows, n, classes, 1)
		_, d := SoftmaxCrossEntropy(model.Forward(x), y)
		model.Backward(d)
		for i, l := range layers {
			var want []bool
			switch {
			case i == 1:
				want = []bool{false}
			case i > 1:
				want = []bool{true}
			}
			if !slices.Equal(l.asked, want) {
				t.Errorf("%s: layer %d (%s) asked for its input gradient %v, want %v", name, i, l.Name(), l.asked, want)
			}
		}
		if rt != nil && !slices.Equal(rt.asked, []bool{false}) {
			t.Errorf("%s: the first layer's transform asked for its input gradient %v, want [false]", name, rt.asked)
		}
	}
}

// TestWorkspaceLeaksNoStaleValues steps one model of every family at 50,
// 10, 200 and 50 rows, with an SGD update after each step. Before each
// step a freshly built copy takes the model's current weights. Each step
// runs every layer's Backward, then Sequential.Backward; the logits, the
// input gradient and the parameter gradients must equal the copy's bit
// for bit, so nothing a kernel reads from its reused workspace is left
// over from an earlier, larger or smaller, step.
func TestWorkspaceLeaksNoStaleValues(t *testing.T) {
	const n, classes = 256, 10
	for name, model := range scratchNets(t, n, classes) {
		opt := NewSGD(model, 0.01, 0.9)
		for step, rows := range []int{50, 10, 200, 50} {
			fresh := scratchNets(t, n, classes)[name]
			params, _ := model.Params()
			freshParams, _ := fresh.Params()
			for i := range params {
				copy(freshParams[i], params[i])
			}
			fresh.Refresh()
			x, y := stepInput(rows, n, classes, int64(step))
			tag := fmt.Sprintf("%s step %d (%d rows)", name, step, rows)
			var logits, dX [2][]float32
			var grads [2][][]float32
			for i, m := range []*Sequential{model, fresh} {
				m.ZeroGrad()
				out := m.Forward(x)
				logits[i] = slices.Clone(out.Data)
				_, d := SoftmaxCrossEntropy(out, y)
				for l := len(m.Layers) - 1; l >= 0; l-- {
					d = m.Layers[l].Backward(d)
				}
				dX[i] = slices.Clone(d.Data)
				m.ZeroGrad()
				_, d = SoftmaxCrossEntropy(m.Forward(x), y)
				m.Backward(d)
				grads[i] = gradCopy(m)
			}
			sameBits(t, tag+": logits", logits[0], logits[1])
			for i := range grads[1] {
				sameBits(t, fmt.Sprintf("%s: gradient group %d", tag, i), grads[0][i], grads[1][i])
			}
			sameBits(t, tag+": input gradient", dX[0], dX[1])
			opt.Step()
		}
	}
}

// TestForwardReadsStepWeights steps the SHL of every family with SGD
// three times. After each step the training Forward, which reads the
// caches Refresh re-derives from the weights (pixelfly's and low-rank's
// Uᵀ, circulant's fft(C)), must equal Infer, which reads the weights
// themselves, bit for bit.
func TestForwardReadsStepWeights(t *testing.T) {
	const n, classes, rows = 64, 10, 7
	x, y := stepInput(rows, n, classes, 3)
	for _, m := range AllMethods {
		model := BuildSHL(m, n, classes, rand.New(rand.NewSource(5)))
		opt := NewSGD(model, 0.05, 0.9)
		for step := 1; step <= 3; step++ {
			model.ZeroGrad()
			_, d := SoftmaxCrossEntropy(model.Forward(x), y)
			model.Backward(d)
			opt.Step()
			want := model.Infer(x)
			sameBits(t, fmt.Sprintf("%v after step %d: Forward against Infer", m, step), model.Forward(x).Data, want.Data)
		}
	}
}

// trainStepBytesBound is the most a steady-state training step of an
// N=1024 SHL at 50 rows may allocate at GOMAXPROCS 4: the loss gradient,
// 2 KiB, and the goroutines the split kernels start, which grow with the
// worker count. Measured over every family on a 2-vCPU host at
// GOMAXPROCS 4, 20 runs: 3.2-15.6 KiB. With a fresh heap per step,
// butterfly's step took 5.37 MiB, pixelfly's 2.67 and circulant's, whose
// FFT rows were fresh too, 19.4.
const trainStepBytesBound = 64 << 10

// TestTrainStepAllocs holds one training step of the N=1024 SHL of every
// family at 50 rows and GOMAXPROCS 4, after two warm-up steps, to
// trainStepBytesBound: ZeroGrad, Forward, SoftmaxCrossEntropy, Backward
// and SGD.Step, with the batch gathered before the measurement, must run
// in the buffers the layers kept from the step before. A layer's
// workspace takes one-off buffers in the first step and grows to them at
// the second step's Forward. The race detector moves allocation figures,
// so the test skips under it.
func TestTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves allocation figures")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, classes, rows = 1024, 10, 50
	ds := pinnedSplit()
	idx := dataset.Batches(ds.XTrain.Rows, rows, rand.New(rand.NewSource(1)))[0]
	x, y := dataset.Gather(ds.XTrain, ds.YTrain, idx)
	for _, m := range AllMethods {
		model := BuildSHL(m, n, classes, rand.New(rand.NewSource(42)))
		opt := NewSGD(model, 0.001, 0.9)
		step := func() {
			model.ZeroGrad()
			_, d := SoftmaxCrossEntropy(model.Forward(x), y)
			model.Backward(d)
			opt.Step()
		}
		step()
		step()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%v: %d bytes in %d allocations per step", m, got, after.Mallocs-before.Mallocs)
		if got > trainStepBytesBound {
			t.Errorf("%v: a training step allocated %d bytes, want at most %d", m, got, trainStepBytesBound)
		}
	}
}
