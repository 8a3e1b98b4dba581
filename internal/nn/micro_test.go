// Kernel variant tests: CompilePlan stamps each kernel step with the name
// of the kernel it runs — the transform's MicroVariant,
// microkernel.Variant for the dense family, "reference" for a transform
// that declares none. The race test pins the promise that plans compiled
// from one model can execute concurrently (CI runs it under -race).
package nn_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/tensor/microkernel"
)

// expectedVariants maps each operator family to the kernel variant its
// kernel steps must carry.
var expectedVariants = map[nn.Method][]string{
	nn.Baseline:  {microkernel.Variant()},
	nn.Butterfly: {"unrolled"},
	nn.Fastfood:  {"radix8"},
	nn.Circulant: {"reference"}, // declares no variant
	nn.LowRank:   {microkernel.Variant()},
	nn.Pixelfly:  {"blocktiled"},
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// TestPlanVariantStamping checks that plans stamp kernel steps with the
// family's kernel variant.
func TestPlanVariantStamping(t *testing.T) {
	for _, method := range nn.AllMethods {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			net := nn.BuildSHL(method, 64, 10, rand.New(rand.NewSource(41)))
			pl, err := net.CompilePlan(8)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			want := expectedVariants[method]
			found := false
			var variants []string
			for i := 0; i < pl.NumSteps(); i++ {
				v := pl.StepVariant(i)
				if v != pl.Step(i).Variant {
					t.Fatalf("step %d: StepVariant %q != StepInfo.Variant %q", i, v, pl.Step(i).Variant)
				}
				variants = append(variants, v)
				if v == "" {
					continue // non-kernel step (standalone activation etc.)
				}
				// The Dense classifier head is present in every model, so
				// the dense tile's variant is always legitimate alongside
				// the family's own; "reference" covers transforms that
				// declare none.
				if !contains(want, v) && v != "reference" && v != microkernel.Variant() {
					t.Fatalf("step %d: unexpected variant %q (want one of %v)", i, v, want)
				}
				if contains(want, v) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no kernel step carries any of %v; variants: %v", want, variants)
			}
		})
	}
}

// TestMicroKernelDispatcherRace executes several plans compiled from one
// model concurrently, each goroutine with its own input, and pins every
// result to Infer. The packed weight panels are built at compile time and
// must be read-only at execution time; CI's -race run enforces that here.
func TestMicroKernelDispatcherRace(t *testing.T) {
	const (
		n        = 64
		maxBatch = 8
		plans    = 4
		iters    = 16
	)
	for _, method := range []nn.Method{nn.Baseline, nn.Butterfly, nn.Fastfood, nn.Pixelfly} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			net := nn.BuildSHL(method, n, 10, rand.New(rand.NewSource(97)))
			var wg sync.WaitGroup
			for g := 0; g < plans; g++ {
				pl, err := net.CompilePlan(maxBatch)
				if err != nil {
					t.Fatalf("CompilePlan: %v", err)
				}
				rng := rand.New(rand.NewSource(int64(1000 + g)))
				x := tensor.New(1+rng.Intn(maxBatch), n)
				x.FillRandom(rng, 1)
				want := net.Infer(x)
				wg.Add(1)
				go func(pl *nn.Plan, x, want *tensor.Matrix) {
					defer wg.Done()
					for it := 0; it < iters; it++ {
						got, err := pl.Execute(x)
						if err != nil {
							t.Errorf("Execute: %v", err)
							return
						}
						for i := range want.Data {
							if want.Data[i] != got.Data[i] {
								t.Errorf("element %d differs: %g vs %g", i, want.Data[i], got.Data[i])
								return
							}
						}
					}
				}(pl, x, want)
			}
			wg.Wait()
		})
	}
}
