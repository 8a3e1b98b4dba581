package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/pixelfly"
	"repro/internal/tensor"
)

// warmInstance is the oracle of the declared demand: an instance whose
// workspace starts empty and is executed twice at maxBatch rows of zeros,
// the warm-up every plan used to run. The first execution records each
// step's demand, the second runs once the workspace has grown to it.
func warmInstance(t testing.TB, low *Lowering, maxBatch int) *Plan {
	t.Helper()
	p, err := low.Instance(maxBatch)
	if err != nil {
		t.Fatalf("Instance(%d): %v", maxBatch, err)
	}
	p.ws = tensor.NewWorkspace(tensor.Scratch{})
	warm := tensor.New(maxBatch, low.InputWidth())
	for i := 0; i < 2; i++ {
		if _, err := p.Execute(warm); err != nil {
			t.Fatalf("warm-up Execute: %v", err)
		}
	}
	return p
}

// callAllocs counts the heap allocations of exactly one call of f, so a
// first call is measured as a first call.
func callAllocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// scratchNets returns one SHL of every served family, plus the two nets
// whose kernels declare their scratch differently: pixelfly without its
// low-rank term, and a post-hoc compressed net with a FactorizedDense.
func scratchNets(t testing.TB, n, classes int) map[string]*Sequential {
	t.Helper()
	nets := map[string]*Sequential{}
	for _, m := range AllMethods {
		nets[m.String()] = BuildSHL(m, n, classes, rand.New(rand.NewSource(61)))
	}
	var err error
	nets["pixelfly-nolowrank"], err = BuildSHLPixelfly(pixelfly.Config{N: n, BlockSize: 16, ButterflySize: 16}, classes, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatalf("BuildSHLPixelfly: %v", err)
	}
	compressed, _, err := BuildSHL(Baseline, n, classes, rand.New(rand.NewSource(3))).Compress(CompressOptions{Tolerance: 0.7, Seed: 5})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	factorised := false
	for _, l := range compressed.Layers {
		if _, ok := l.(*FactorizedDense); ok {
			factorised = true
		}
	}
	if !factorised {
		t.Fatal("the compressed net holds no FactorizedDense, so its declaration goes untested")
	}
	nets["compressed"] = compressed
	return nets
}

// TestPlanDeclaredScratch pins the sizing contract: every step's kernel
// takes exactly the scratch it declares, a plan holds what its lowering
// declares, that is exactly what the warm-up oracle leaves, and its first
// Execute at full rows allocates nothing. It covers every
// family, fused and unfused, at every bucket from 1 to 64; a declaration
// that undercounts leaves the workspace short of the oracle's, and the
// first Execute then allocates. The packless lowering reports the same
// figures as the packed one, which is what the serving layer prices.
func TestPlanDeclaredScratch(t *testing.T) {
	const n, classes = 64, 10
	for name, net := range scratchNets(t, n, classes) {
		for _, opts := range []PlanOptions{{}, {NoFuse: true}} {
			low, err := net.Lower(opts)
			if err != nil {
				t.Fatalf("%s: Lower: %v", name, err)
			}
			packed := low.Pack()
			for mb := 1; mb <= 64; mb *= 2 {
				tag := func() string {
					if opts.NoFuse {
						return name + "/unfused"
					}
					return name + "/fused"
				}()
				// Each step's kernel, run once on a workspace that starts
				// empty, takes exactly what the step declares; a
				// declaration the plan-wide maximum would hide shows here.
				in := packed.InputWidth()
				for i := range packed.steps {
					ws := tensor.NewWorkspace(tensor.Scratch{})
					ws.Reset()
					packed.StepRunner(i)(tensor.New(mb, packed.StepCols(i)), tensor.New(mb, in), ws)
					ws.Reset()
					if got, want := ws.Capacity(), packed.StepScratch(i, mb); got != want {
						t.Errorf("%s at %d rows: step %d (%s) took %+v, declares %+v", tag, mb, i, packed.steps[i].name, got, want)
					}
					in = packed.StepCols(i)
				}
				oracle := warmInstance(t, packed, mb)
				st := low.Stats(mb)
				if st != packed.Stats(mb) {
					t.Errorf("%s at %d rows: packless stats %+v, packed %+v", tag, mb, st, packed.Stats(mb))
				}
				x := tensor.New(mb, n)
				x.FillRandom(rand.New(rand.NewSource(int64(mb))), 1)
				// Dense layers wide enough run on tensor.ParallelRows,
				// whose goroutines allocate; the budget is the one
				// TestPlanSteadyStateAllocs gives them.
				budget := uint64(0)
				if name == Baseline.String() {
					budget = 8
				}
				// An allocation of the plan's own shows in every fresh
				// instance; the runtime's background work in one reading
				// at most, so a second and third instance are read before
				// the first Execute counts as allocating.
				allocs := ^uint64(0)
				var inst *Plan
				for try := 0; try < 3 && allocs > budget; try++ {
					if inst, err = packed.Instance(mb); err != nil {
						t.Fatalf("%s: Instance(%d): %v", tag, mb, err)
					}
					if got, want := inst.ws.Capacity(), oracle.ws.Capacity(); got != want {
						t.Errorf("%s at %d rows: workspace holds %+v, warm-up oracle %+v", tag, mb, got, want)
					}
					if got := 4 * (len(inst.bufA) + len(inst.bufB)); got != st.ArenaBytes {
						t.Errorf("%s at %d rows: arenas hold %d bytes, lowering declares %d", tag, mb, got, st.ArenaBytes)
					}
					if got := inst.ws.Capacity().Bytes(); got != st.WorkspaceBytes {
						t.Errorf("%s at %d rows: workspace holds %d bytes, lowering declares %d", tag, mb, got, st.WorkspaceBytes)
					}
					allocs = min(allocs, callAllocs(func() { inst.Execute(x) }))
				}
				if allocs > budget {
					t.Errorf("%s at %d rows: first Execute allocated %d objects, want at most %d", tag, mb, allocs, budget)
				}
				if got := inst.ws.Capacity(); got != oracle.ws.Capacity() {
					t.Errorf("%s at %d rows: workspace grew to %+v in Execute", tag, mb, got)
				}
			}
		}
	}
}
