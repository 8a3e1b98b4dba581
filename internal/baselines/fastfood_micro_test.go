package baselines

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestFastfoodApplyIntoMicroMatchesReference checks the radix-8 FWHT
// inference kernel against Apply followed by a separate bias and
// activation sweep, bit-for-bit, across sizes spanning the n<8 fallback
// and the chunked regime, with and without bias, under both activations.
func TestFastfoodApplyIntoMicroMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{4, 8, 64, 1024} {
		f := NewFastfood(n, rand.New(rand.NewSource(52)))
		ws := tensor.NewWorkspace(tensor.Scratch{})
		for _, rows := range []int{1, 4} {
			x := tensor.New(rows, n)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			bias := make([]float32, n)
			for i := range bias {
				bias[i] = rng.Float32()*2 - 1
			}
			got := tensor.New(rows, n)
			for _, bv := range [][]float32{nil, bias} {
				for _, act := range []tensor.Activation{tensor.ActNone, tensor.ActReLU} {
					want := f.Apply(x)
					tensor.ApplyBiasActInto(want, want, bv, act)
					ws.Reset()
					f.ApplyInto(got, x, ws, bv, act)
					assertFastfoodSame(t, fmt.Sprintf("n=%d rows=%d bias=%t/%v", n, rows, bv != nil, act), want, got)
				}
			}
		}
	}
}

func TestFastfoodMicroVariant(t *testing.T) {
	if got := NewFastfood(1024, rand.New(rand.NewSource(53))).MicroVariant(); got != "radix8" {
		t.Errorf("n=1024: MicroVariant() = %q, want radix8", got)
	}
	if got := NewFastfood(4, rand.New(rand.NewSource(54))).MicroVariant(); got != "reference" {
		t.Errorf("n=4: MicroVariant() = %q, want reference", got)
	}
}

func assertFastfoodSame(t *testing.T, op string, want, got *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: data[%d] = %v, want %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

// TestScratchDeclaresApplyInto pins each baseline's declared workspace
// demand: a workspace that starts empty grows, over one ApplyInto and the
// Reset after it, to exactly what Scratch declares.
func TestScratchDeclaresApplyInto(t *testing.T) {
	const n = 64
	for name, tr := range map[string]interface {
		ApplyInto(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation)
		Scratch(rows int) tensor.Scratch
	}{
		"fastfood":  NewFastfood(n, rand.New(rand.NewSource(55))),
		"circulant": NewCirculant(n, rand.New(rand.NewSource(56))),
		"lowrank":   NewLowRank(n, 4, rand.New(rand.NewSource(57))),
	} {
		for _, rows := range []int{1, 5} {
			ws := tensor.NewWorkspace(tensor.Scratch{})
			ws.Reset()
			tr.ApplyInto(tensor.New(rows, n), tensor.New(rows, n), ws, nil, tensor.ActNone)
			ws.Reset()
			if got, want := ws.Capacity(), tr.Scratch(rows); got != want {
				t.Errorf("%s at %d rows: ApplyInto took %+v, Scratch declares %+v", name, rows, got, want)
			}
		}
	}
}

// TestLowRankApplyColsIntoAssemblesApplyInto pins the tensor-parallel
// window form of the low-rank transform: windows at any column bounds,
// each through a workspace of its own, assemble ApplyInto bit for bit,
// leave every column outside them alone, and take exactly the
// ColsScratch they declare.
func TestLowRankApplyColsIntoAssemblesApplyInto(t *testing.T) {
	const n, rows = 40, 3
	rng := rand.New(rand.NewSource(58))
	l := NewLowRank(n, 5, rng)
	x := tensor.New(rows, n)
	x.FillRandom(rng, 1)
	bias := make([]float32, n)
	for i := range bias {
		bias[i] = rng.Float32()*2 - 1
	}
	want := tensor.New(rows, n)
	l.ApplyInto(want, x, tensor.NewWorkspace(l.Scratch(rows)), bias, tensor.ActReLU)
	for _, pts := range [][]int{{0, n}, {0, 13, 27, n}, {0, 1, 1, n - 1, n}} {
		got := tensor.New(rows, n)
		for i := range got.Data {
			got.Data[i] = 99
		}
		for k := 0; k+1 < len(pts); k++ {
			lo, hi := pts[k], pts[k+1]
			ws := tensor.NewWorkspace(tensor.Scratch{})
			ws.Reset()
			l.ApplyColsInto(got, x, ws, lo, hi, bias[lo:hi], tensor.ActReLU)
			ws.Reset()
			if got, want := ws.Capacity(), l.ColsScratch(rows, hi-lo); got != want {
				t.Errorf("window [%d,%d): took %+v, ColsScratch declares %+v", lo, hi, got, want)
			}
			for r := 0; r < rows; r++ {
				for j, v := range got.Row(r)[hi:] {
					if v != 99 {
						t.Fatalf("window [%d,%d) wrote column %d", lo, hi, hi+j)
					}
				}
			}
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("windows %v: data[%d] = %v, want %v", pts, i, got.Data[i], want.Data[i])
			}
		}
	}
}
