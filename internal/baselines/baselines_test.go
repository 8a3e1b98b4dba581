package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// transform is the common protocol of the three baselines, used to share
// gradient checks.
type transform interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Apply(x *tensor.Matrix) *tensor.Matrix
	Backward(dY *tensor.Matrix, inputGrad bool) *tensor.Matrix
	ZeroGrad()
	Params() (params, grads [][]float32)
	Dense() *tensor.Matrix
}

func checkDenseEquivalence(t *testing.T, name string, tr transform, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(4, n)
	x.FillRandom(rng, 1)
	want := tensor.MatMul(x, tr.Dense().Transpose())
	got := tr.Apply(x)
	if !tensor.AlmostEqual(want, got, 1e-3) {
		t.Fatalf("%s: Apply != X·Denseᵀ (maxdiff %v)", name, tensor.MaxAbsDiff(want, got))
	}
}

func checkGradients(t *testing.T, name string, tr transform, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(3, n)
	x.FillRandom(rng, 1)
	r := tensor.New(3, n)
	r.FillRandom(rng, 1)
	loss := func() float64 {
		y := tr.Apply(x)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i]) * float64(r.Data[i])
		}
		return s
	}
	tr.ZeroGrad()
	tr.Forward(x)
	dx := tr.Backward(r, true)

	// input gradient
	const h = 1e-3
	for i := 0; i < len(x.Data); i += 5 {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := loss()
		x.Data[i] = orig - h
		dn := loss()
		x.Data[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-float64(dx.Data[i])) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("%s: input grad[%d] analytic %v numeric %v", name, i, dx.Data[i], num)
		}
	}
	// weight gradients
	params, grads := tr.Params()
	for pi, pslice := range params {
		step := len(pslice)/6 + 1
		for j := 0; j < len(pslice); j += step {
			orig := pslice[j]
			pslice[j] = orig + h
			up := loss()
			pslice[j] = orig - h
			dn := loss()
			pslice[j] = orig
			num := (up - dn) / (2 * h)
			got := float64(grads[pi][j])
			if math.Abs(num-got) > 2e-2*(1+math.Abs(num)) {
				t.Fatalf("%s: weight grad[%d][%d] analytic %v numeric %v", name, pi, j, got, num)
			}
		}
	}
}

func TestLowRankDenseEquivalence(t *testing.T) {
	l := NewLowRank(16, 3, rand.New(rand.NewSource(1)))
	checkDenseEquivalence(t, "lowrank", l, 16, 2)
}

func TestLowRankGradients(t *testing.T) {
	l := NewLowRank(16, 2, rand.New(rand.NewSource(3)))
	checkGradients(t, "lowrank", l, 16, 4)
}

func TestLowRankParamCountTable4(t *testing.T) {
	// Table 4: LowRank at n=1024 rank 1 => 2048 structured params; with
	// bias(1024)+W2(10240)+bias(10) => 13,322 total.
	l := NewLowRank(1024, 1, rand.New(rand.NewSource(5)))
	if l.ParamCount() != 2048 {
		t.Fatalf("ParamCount = %d, want 2048", l.ParamCount())
	}
	if total := l.ParamCount() + 1024 + 10240 + 10; total != 13322 {
		t.Fatalf("SHL total = %d, want 13322", total)
	}
}

func TestLowRankDenseHasRank(t *testing.T) {
	l := NewLowRank(8, 2, rand.New(rand.NewSource(6)))
	d := l.Dense()
	// rank ≤ 2: any 3×3 minor must be (near) singular. Cheap proxy: the
	// matrix columns live in a 2-dim space, so col3 is a combination of
	// col1,col2 — verify via least squares residual on a sampled triple.
	c0 := make([]float64, 8)
	c1 := make([]float64, 8)
	c2 := make([]float64, 8)
	for i := 0; i < 8; i++ {
		c0[i] = float64(d.At(i, 0))
		c1[i] = float64(d.At(i, 1))
		c2[i] = float64(d.At(i, 2))
	}
	// Solve min ||a·c0 + b·c1 - c2|| via normal equations.
	var a00, a01, a11, b0, b1 float64
	for i := 0; i < 8; i++ {
		a00 += c0[i] * c0[i]
		a01 += c0[i] * c1[i]
		a11 += c1[i] * c1[i]
		b0 += c0[i] * c2[i]
		b1 += c1[i] * c2[i]
	}
	det := a00*a11 - a01*a01
	if math.Abs(det) < 1e-12 {
		return // degenerate but consistent with low rank
	}
	alpha := (b0*a11 - b1*a01) / det
	beta := (a00*b1 - a01*b0) / det
	var resid float64
	for i := 0; i < 8; i++ {
		r := alpha*c0[i] + beta*c1[i] - c2[i]
		resid += r * r
	}
	if resid > 1e-6 {
		t.Fatalf("rank-2 structure violated: residual %v", resid)
	}
}

func TestCirculantDenseEquivalence(t *testing.T) {
	c := NewCirculant(16, rand.New(rand.NewSource(7)))
	checkDenseEquivalence(t, "circulant", c, 16, 8)
}

func TestCirculantGradients(t *testing.T) {
	c := NewCirculant(16, rand.New(rand.NewSource(9)))
	checkGradients(t, "circulant", c, 16, 10)
}

func TestCirculantParamCountTable4(t *testing.T) {
	c := NewCirculant(1024, rand.New(rand.NewSource(11)))
	if c.ParamCount() != 1024 {
		t.Fatalf("ParamCount = %d, want 1024", c.ParamCount())
	}
	if total := c.ParamCount() + 1024 + 10240 + 10; total != 12298 {
		t.Fatalf("SHL total = %d, want 12298", total)
	}
}

func TestCirculantDenseIsCirculant(t *testing.T) {
	c := NewCirculant(8, rand.New(rand.NewSource(12)))
	d := c.Dense()
	for k := 0; k < 8; k++ {
		for t2 := 0; t2 < 8; t2++ {
			if d.At(k, t2) != d.At((k+1)%8, (t2+1)%8) {
				t.Fatalf("not circulant at (%d,%d)", k, t2)
			}
		}
	}
}

func TestCirculantRequiresPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("circulant size 12 did not panic")
		}
	}()
	NewCirculant(12, rand.New(rand.NewSource(13)))
}

func TestFastfoodDenseEquivalence(t *testing.T) {
	f := NewFastfood(16, rand.New(rand.NewSource(14)))
	checkDenseEquivalence(t, "fastfood", f, 16, 15)
}

func TestFastfoodGradients(t *testing.T) {
	f := NewFastfood(16, rand.New(rand.NewSource(16)))
	checkGradients(t, "fastfood", f, 16, 17)
}

func TestFastfoodParamCountTable4(t *testing.T) {
	f := NewFastfood(1024, rand.New(rand.NewSource(18)))
	if f.ParamCount() != 3072 {
		t.Fatalf("ParamCount = %d, want 3072", f.ParamCount())
	}
	if total := f.ParamCount() + 1024 + 10240 + 10; total != 14346 {
		t.Fatalf("SHL total = %d, want 14346", total)
	}
}

func TestFastfoodPermutationFixed(t *testing.T) {
	// Π is part of the architecture, not learnable: Params must expose
	// exactly S, G, B.
	f := NewFastfood(8, rand.New(rand.NewSource(19)))
	params, grads := f.Params()
	if len(params) != 3 || len(grads) != 3 {
		t.Fatalf("expected 3 parameter groups, got %d", len(params))
	}
	for _, p := range params {
		if len(p) != 8 {
			t.Fatalf("diagonal length %d, want 8", len(p))
		}
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	cases := []struct {
		name string
		tr   transform
	}{
		{"lowrank", NewLowRank(8, 1, rand.New(rand.NewSource(20)))},
		{"circulant", NewCirculant(8, rand.New(rand.NewSource(21)))},
		{"fastfood", NewFastfood(8, rand.New(rand.NewSource(22)))},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward before Forward did not panic", tc.name)
				}
			}()
			tc.tr.Backward(tensor.New(1, 8), true)
		}()
	}
}

// TestGradientsAllocatedOnFirstUse pins when a baseline holds gradient
// buffers: none once built or after ZeroGrad, zeroed ones as long as their
// parameters from Params, and the same gradients, bit for bit, after
// Forward and Backward whether Params (as nn.NewSGD calls it) or Backward
// allocated them.
func TestGradientsAllocatedOnFirstUse(t *testing.T) {
	const n = 16
	u := tensor.GaussianMatrix(n, 2, rand.New(rand.NewSource(30)))
	v := tensor.GaussianMatrix(n, 2, rand.New(rand.NewSource(31)))
	for _, c := range []struct {
		name  string
		build func() transform
	}{
		{"lowrank", func() transform { return NewLowRank(n, 2, rand.New(rand.NewSource(32))) }},
		{"lowrank from factors", func() transform { return NewLowRankFromFactors(u, v) }},
		{"circulant", func() transform { return NewCirculant(n, rand.New(rand.NewSource(33))) }},
		{"fastfood", func() transform { return NewFastfood(n, rand.New(rand.NewSource(34))) }},
	} {
		tr := c.build()
		if !gradsAbsent(tr) {
			t.Fatalf("%s: a new transform holds gradient buffers", c.name)
		}
		if a := testing.AllocsPerRun(10, tr.ZeroGrad); a != 0 || !gradsAbsent(tr) {
			t.Fatalf("%s: ZeroGrad made %v allocations (buffers absent after: %v)", c.name, a, gradsAbsent(tr))
		}
		params, grads := tr.Params()
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
		rng := rand.New(rand.NewSource(35))
		x, dY := tensor.New(3, n), tensor.New(3, n)
		x.FillRandom(rng, 1)
		dY.FillRandom(rng, 1)
		viaBackward := c.build()
		for _, m := range []transform{tr, viaBackward} {
			m.Forward(x)
			m.Backward(dY, true)
		}
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

// gradsAbsent reports whether a baseline holds no gradient buffers.
func gradsAbsent(tr transform) bool {
	switch tr := tr.(type) {
	case *LowRank:
		return tr.GradU == nil && tr.GradV == nil
	case *Circulant:
		return tr.GradC == nil
	case *Fastfood:
		return tr.GradS == nil && tr.GradG == nil && tr.GradB == nil
	}
	panic(fmt.Sprintf("gradsAbsent: transform %T", tr))
}
