package butterfly

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// backwardFactorRows is the serial backward sweep of one factor, row by
// row and pair by pair — the oracle for Backward's input-gradient sweep
// and gradFactorPairs.
func backwardFactorRows(f *Factor, in, dOut, dIn *tensor.Matrix) {
	half := 1 << (f.Stage - 1)
	block := half << 1
	n := f.N
	for r := 0; r < in.Rows; r++ {
		x := in.Row(r)
		dy := dOut.Row(r)
		dx := dIn.Row(r)
		p := 0
		for start := 0; start < n; start += block {
			for k := 0; k < half; k++ {
				top := start + k
				bot := top + half
				xt, xb := x[top], x[bot]
				gt, gb := dy[top], dy[bot]
				// dX = Bᵀ·dY per pair
				dx[top] = f.A[p]*gt + f.C[p]*gb
				dx[bot] = f.B[p]*gt + f.D[p]*gb
				// weight grads
				f.GradA[p] += gt * xt
				f.GradB[p] += gt * xb
				f.GradC[p] += gb * xt
				f.GradD[p] += gb * xb
				p++
			}
		}
	}
}

// refForward and refBackward are Forward and Backward on the serial
// reference sweeps: the oracles for the split training path.
func refForward(b *Butterfly, x *tensor.Matrix) *tensor.Matrix {
	cur := b.applyPermRows(x)
	b.stageInputs = b.stageInputs[:0]
	for _, f := range b.Factors {
		b.stageInputs = append(b.stageInputs, cur)
		next := tensor.New(cur.Rows, cur.Cols)
		applyFactorRows(f, cur, next)
		cur = next
	}
	return cur
}

func refBackward(b *Butterfly, dY *tensor.Matrix) *tensor.Matrix {
	cur := dY
	for s := len(b.Factors) - 1; s >= 0; s-- {
		f := b.Factors[s]
		next := tensor.New(cur.Rows, cur.Cols)
		backwardFactorRows(f, b.stageInputs[s], cur, next)
		if b.Param == Rotation {
			foldRotationGrads(f, 0, f.NumPairs())
		}
		cur = next
	}
	if b.Perm == nil {
		return cur
	}
	out := tensor.New(cur.Rows, cur.Cols)
	for r := 0; r < cur.Rows; r++ {
		for i, p := range b.Perm {
			out.Row(r)[p] += cur.Row(r)[i]
		}
	}
	return out
}

func randRows(rng *rand.Rand, rows, n int) *tensor.Matrix {
	m := tensor.New(rows, n)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// TestTrainingPathMatchesOracles runs Forward and two accumulating
// Backward calls on the split path and on the serial oracles, and
// compares outputs, input gradients and every parameter gradient by ==,
// at GOMAXPROCS 1 and 4, for both parameterizations.
func TestTrainingPathMatchesOracles(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{2, 16, 1024} {
			for _, param := range []Parameterization{Dense2x2, Rotation} {
				tag := fmt.Sprintf("procs=%d n=%d %v", procs, n, param)
				got := New(n, param, rand.New(rand.NewSource(21)))
				want := New(n, param, rand.New(rand.NewSource(21)))
				want.Params() // allocates the gradients refBackward writes
				rng := rand.New(rand.NewSource(22))
				for call := 0; call < 2; call++ {
					x := randRows(rng, 50, n)
					dY := randRows(rng, 50, n)
					assertSame(t, n, 50, tag+" Forward", refForward(want, x), got.Forward(x))
					assertSame(t, n, 50, tag+" Backward dX", refBackward(want, dY), got.Backward(dY, true))
				}
				_, wg := want.Params()
				_, gg := got.Params()
				for i := range wg {
					for j := range wg[i] {
						if wg[i][j] != gg[i][j] {
							t.Fatalf("%s: gradient group %d [%d] = %v, want %v", tag, i, j, gg[i][j], wg[i][j])
						}
					}
				}
				for s, f := range want.Factors {
					for p := range f.GradA {
						g := got.Factors[s]
						if f.GradA[p] != g.GradA[p] || f.GradB[p] != g.GradB[p] || f.GradC[p] != g.GradC[p] || f.GradD[p] != g.GradD[p] {
							t.Fatalf("%s: stage %d pair %d coefficient gradients differ", tag, s+1, p)
						}
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestGradPairRanges checks the pair-range gradient kernel on ranges that
// cut stage blocks at every offset, against the full serial sweep.
func TestGradPairRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 32
	for stage := 1; stage <= 5; stage++ {
		for cut := 0; cut <= n/2; cut++ {
			// Params allocates the gradients both kernels write into.
			wb := New(n, Dense2x2, rand.New(rand.NewSource(24)))
			gb := New(n, Dense2x2, rand.New(rand.NewSource(24)))
			wb.Params()
			gb.Params()
			want, got := wb.Factors[stage-1], gb.Factors[stage-1]
			in, dOut := randRows(rng, 3, n), randRows(rng, 3, n)
			backwardFactorRows(want, in, dOut, tensor.New(3, n))
			gradFactorPairs(got, in, dOut, 0, cut)
			gradFactorPairs(got, in, dOut, cut, n/2)
			for p := range want.GradA {
				if want.GradA[p] != got.GradA[p] || want.GradB[p] != got.GradB[p] || want.GradC[p] != got.GradC[p] || want.GradD[p] != got.GradD[p] {
					t.Fatalf("stage %d cut %d: pair %d gradients differ", stage, cut, p)
				}
			}
		}
	}
}

// TestGradientsAllocatedOnFirstUse pins when a butterfly holds gradient
// buffers: none once built or after ZeroGrad, zeroed ones as long as their
// parameters from Params, and the same gradients, bit for bit, after
// Forward and Backward whether Params (as nn.NewSGD calls it) or Backward
// allocated them.
func TestGradientsAllocatedOnFirstUse(t *testing.T) {
	const n = 16
	absent := func(b *Butterfly) bool {
		for _, f := range b.Factors {
			if f.GradA != nil || f.GradB != nil || f.GradC != nil || f.GradD != nil || f.GradTheta != nil {
				return false
			}
		}
		return true
	}
	for _, param := range []Parameterization{Dense2x2, Rotation} {
		build := func() *Butterfly { return New(n, param, rand.New(rand.NewSource(26))) }
		b := build()
		if !absent(b) {
			t.Fatalf("%v: a new butterfly holds gradient buffers", param)
		}
		if a := testing.AllocsPerRun(10, b.ZeroGrad); a != 0 || !absent(b) {
			t.Fatalf("%v: ZeroGrad made %v allocations (buffers absent after: %v)", param, a, absent(b))
		}
		params, grads := b.Params()
		for i := range params {
			if len(grads[i]) != len(params[i]) {
				t.Fatalf("%v: gradient group %d has %d values for %d parameters", param, i, len(grads[i]), len(params[i]))
			}
			for _, g := range grads[i] {
				if g != 0 {
					t.Fatalf("%v: gradient group %d starts at %v", param, i, g)
				}
			}
		}
		rng := rand.New(rand.NewSource(27))
		x, dY := randRows(rng, 3, n), randRows(rng, 3, n)
		viaBackward := build()
		for _, m := range []*Butterfly{b, viaBackward} {
			m.Forward(x)
			m.Backward(dY, true)
		}
		// grads are the slices an optimizer bound before the step.
		_, got := viaBackward.Params()
		for i := range grads {
			for j := range grads[i] {
				if math.Float32bits(got[i][j]) != math.Float32bits(grads[i][j]) {
					t.Fatalf("%v: gradient group %d [%d] = %v allocated by Backward, %v by Params", param, i, j, got[i][j], grads[i][j])
				}
			}
		}
	}
}

// BenchmarkTrainStep times Forward+Backward of the N=1024 rotation
// butterfly at batch 50 (the training shape) on the split path and on
// the serial oracles.
func BenchmarkTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	bf := New(1024, Rotation, rng)
	bf.Params() // allocates the gradients refBackward writes
	x, dY := randRows(rng, 50, 1024), randRows(rng, 50, 1024)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refForward(bf, x)
			refBackward(bf, dY)
		}
	})
	b.Run("new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bf.Forward(x)
			bf.Backward(dY, true)
		}
	})
}

// TestRotationSincosMatchesSinCos: syncRotation and foldRotationGrads take
// sine and cosine from one math.Sincos call, which Go does not promise to
// round like math.Sin and math.Cos. Over every 997th float32 in ±[0, 4]
// (π/2 and π included), random thetas in [−8, 8] and a few edge values,
// the coefficients must carry the bits of float32(math.Cos) and
// float32(math.Sin), and the angle gradients the bits of the two-call
// form, so trained rotation butterflies stay bit for bit.
func TestRotationSincosMatchesSinCos(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	thetas := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 1e-30,
		float32(math.Pi / 2), float32(math.Pi), float32(-math.Pi), float32(2 * math.Pi)}
	for bits := uint32(0); bits <= math.Float32bits(4); bits += 997 {
		v := math.Float32frombits(bits)
		thetas = append(thetas, v, -v)
	}
	for range 200_000 {
		thetas = append(thetas, rng.Float32()*16-8)
	}
	const chunk = 4096
	f := &Factor{N: 2 * chunk, Stage: 1}
	f.A, f.B, f.C, f.D = make([]float32, chunk), make([]float32, chunk), make([]float32, chunk), make([]float32, chunk)
	f.GradA, f.GradB, f.GradC, f.GradD = make([]float32, chunk), make([]float32, chunk), make([]float32, chunk), make([]float32, chunk)
	f.GradTheta = make([]float32, chunk)
	grads := [4][]float32{f.GradA, f.GradB, f.GradC, f.GradD}
	for lo := 0; lo < len(thetas); lo += chunk {
		f.Theta = thetas[lo:min(lo+chunk, len(thetas))]
		m := len(f.Theta)
		for _, g := range grads {
			for p := range m {
				g[p] = rng.Float32()*2 - 1
			}
		}
		gA, gB, gC, gD := slices.Clone(f.GradA[:m]), slices.Clone(f.GradB[:m]), slices.Clone(f.GradC[:m]), slices.Clone(f.GradD[:m])
		clear(f.GradTheta)
		f.syncRotation()
		foldRotationGrads(f, 0, m)
		for p, th := range f.Theta {
			c, s := math.Cos(float64(th)), math.Sin(float64(th))
			want := [4]float32{float32(c), float32(s), -float32(s), float32(c)}
			got := [4]float32{f.A[p], f.B[p], f.C[p], f.D[p]}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("theta %v (%#x): coefficient %c = %v (%#x), want %v (%#x)",
						th, math.Float32bits(th), "ABCD"[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
			g := float32(-s*float64(gA[p]) + c*float64(gB[p]) - c*float64(gC[p]) - s*float64(gD[p]))
			if math.Float32bits(f.GradTheta[p]) != math.Float32bits(g) {
				t.Fatalf("theta %v (%#x): angle gradient %v (%#x), want %v (%#x)",
					th, math.Float32bits(th), f.GradTheta[p], math.Float32bits(f.GradTheta[p]), g, math.Float32bits(g))
			}
		}
	}
}
