package nn

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestPlanMatchesInferAllMethods asserts the tentpole contract: for every
// Table 4 method, Plan.Execute output is bit-for-bit identical to
// Sequential.Infer, across batch sizes from 1 up to the plan's maximum.
func TestPlanMatchesInferAllMethods(t *testing.T) {
	const n, classes, maxBatch = 64, 10, 16
	for _, method := range AllMethods {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			net := BuildSHL(method, n, classes, rand.New(rand.NewSource(7)))
			plan, err := net.CompilePlan(maxBatch)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			if plan.InputWidth() != n || plan.OutputWidth() != classes {
				t.Fatalf("plan dims %d->%d, want %d->%d",
					plan.InputWidth(), plan.OutputWidth(), n, classes)
			}
			rng := rand.New(rand.NewSource(99))
			for _, batch := range []int{1, 3, maxBatch} {
				x := tensor.New(batch, n)
				x.FillRandom(rng, 1)
				want := net.Infer(x)
				got := mustExecute(t, plan, x)
				if d := tensor.MaxAbsDiff(want, got); d != 0 {
					t.Fatalf("batch %d: plan output differs from Infer by %g (want bit-for-bit)", batch, d)
				}
			}
		})
	}
}

// TestPlanMatchesInferCompressed compiles a plan for a post-hoc compressed
// model (which mixes FactorizedDense / structured layers swapped in by
// Compress) and checks bit-for-bit equivalence with Infer.
func TestPlanMatchesInferCompressed(t *testing.T) {
	const n, classes = 32, 10
	net := BuildSHL(Baseline, n, classes, rand.New(rand.NewSource(3)))
	compressed, reports, err := net.Compress(CompressOptions{Tolerance: 0.7, Seed: 5})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("Compress produced no layer reports")
	}
	plan, err := compressed.CompilePlan(8)
	if err != nil {
		t.Fatalf("CompilePlan(compressed): %v", err)
	}
	x := tensor.New(5, n)
	x.FillRandom(rand.New(rand.NewSource(11)), 1)
	want := compressed.Infer(x)
	got := mustExecute(t, plan, x)
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("compressed plan output differs from Infer by %g", d)
	}
}

// TestPlanRepeatedExecuteIsStable reruns one plan many times over distinct
// inputs, interleaving batch sizes, to verify buffer reuse never leaks
// state between executions.
func TestPlanRepeatedExecuteIsStable(t *testing.T) {
	const n, classes, maxBatch = 64, 10, 8
	net := BuildSHL(Butterfly, n, classes, rand.New(rand.NewSource(21)))
	plan, err := net.CompilePlan(maxBatch)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 20; iter++ {
		batch := 1 + iter%maxBatch
		x := tensor.New(batch, n)
		x.FillRandom(rng, 1)
		want := net.Infer(x)
		got := mustExecute(t, plan, x)
		if d := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("iter %d batch %d: diff %g", iter, batch, d)
		}
	}
}

// TestPlanPoolConcurrent exercises the serving pattern under -race: a
// sync.Pool of plans shared by goroutines that concurrently check plan
// outputs against the (read-only) Infer path.
func TestPlanPoolConcurrent(t *testing.T) {
	const n, classes, maxBatch = 64, 10, 8
	for _, method := range []Method{Butterfly, Circulant, Pixelfly} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			net := BuildSHL(method, n, classes, rand.New(rand.NewSource(31)))
			var pool sync.Pool
			getPlan := func() *Plan {
				if v := pool.Get(); v != nil {
					return v.(*Plan)
				}
				p, err := net.CompilePlan(maxBatch)
				if err != nil {
					t.Errorf("CompilePlan: %v", err)
					return nil
				}
				return p
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for iter := 0; iter < 10; iter++ {
						batch := 1 + rng.Intn(maxBatch)
						x := tensor.New(batch, n)
						x.FillRandom(rng, 1)
						p := getPlan()
						if p == nil {
							return
						}
						got, xerr := p.Execute(x)
						if xerr != nil {
							t.Errorf("Execute: %v", xerr)
							return
						}
						want := net.Infer(x)
						if d := tensor.MaxAbsDiff(want, got); d != 0 {
							t.Errorf("goroutine seed %d iter %d: diff %g", seed, iter, d)
						}
						pool.Put(p)
					}
				}(int64(100 + g))
			}
			wg.Wait()
		})
	}
}

// TestPlanErrors covers compilation edge cases.
func TestPlanErrors(t *testing.T) {
	net := BuildSHL(Baseline, 16, 4, rand.New(rand.NewSource(1)))
	if _, err := net.CompilePlan(0); err == nil {
		t.Error("CompilePlan(0) should fail")
	}
	if _, err := NewSequential().CompilePlan(4); err == nil {
		t.Error("CompilePlan on empty model should fail")
	}
	if _, err := NewSequential(NewReLU()).CompilePlan(4); err == nil {
		t.Error("CompilePlan with leading ReLU should fail (no input width)")
	}
	plan, err := net.CompilePlan(4)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	if _, err := plan.Execute(tensor.New(5, 16)); !errors.Is(err, ErrPlanBatch) {
		t.Errorf("oversized batch: got %v, want ErrPlanBatch", err)
	}
	if _, err := plan.Execute(tensor.New(2, 8)); !errors.Is(err, ErrPlanWidth) {
		t.Errorf("wrong width: got %v, want ErrPlanWidth", err)
	}
	if _, err := plan.Execute(tensor.New(0, 16)); !errors.Is(err, ErrPlanBatch) {
		t.Errorf("zero rows: got %v, want ErrPlanBatch", err)
	}
	// A rejected input must not poison the plan for the next caller.
	x := tensor.New(2, 16)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	want := net.Infer(x)
	got := mustExecute(t, plan, x)
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Errorf("plan output differs by %g after rejected inputs", d)
	}
}

// unloweredLayer is a Layer type the plan compiler has no lowering for.
type unloweredLayer struct{ *ReLU }

func (unloweredLayer) Name() string { return "unlowered" }

// TestCompilePlanRejectsUnknownLayer pins that a plan runs only lowered
// kernels: a Layer type with no lowering fails the compile with an error
// that names the layer, rather than compiling a step that calls its
// Infer.
func TestCompilePlanRejectsUnknownLayer(t *testing.T) {
	net := NewSequential(NewDense(16, 8, rand.New(rand.NewSource(1))), unloweredLayer{NewReLU()})
	_, err := net.CompilePlan(4)
	if err == nil {
		t.Fatal("CompilePlan compiled a layer type it has no lowering for")
	}
	if !strings.Contains(err.Error(), "unlowered") {
		t.Errorf("error %q does not name the layer", err)
	}
}

// mustExecute runs the plan and fails the test on an input-contract error.
func mustExecute(t *testing.T, p *Plan, x *tensor.Matrix) *tensor.Matrix {
	t.Helper()
	y, err := p.Execute(x)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return y
}

// TestPlanSteadyStateAllocs checks the allocation contract directly: after
// warm-up, Execute performs zero heap allocations for every method.
func TestPlanSteadyStateAllocs(t *testing.T) {
	const n, classes, maxBatch = 64, 10, 8
	for _, method := range AllMethods {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			net := BuildSHL(method, n, classes, rand.New(rand.NewSource(17)))
			plan, err := net.CompilePlan(maxBatch)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			x := tensor.New(maxBatch, n)
			x.FillRandom(rand.New(rand.NewSource(18)), 1)
			mustExecute(t, plan, x)
			avg := testing.AllocsPerRun(20, func() { plan.Execute(x) })
			// Dense layers route through MatMulParallelInto, which may spawn
			// goroutines (their stacks count as allocations); everything else
			// must be zero. Allow a small parallelism budget only.
			if avg > 8 {
				t.Errorf("Execute allocates %.1f objects per run at steady state", avg)
			}
			if method != Baseline {
				// Structured first layers are small enough that the dense
				// head stays under the parallel threshold: expect zero.
				if avg != 0 {
					t.Errorf("Execute allocates %.1f objects per run, want 0", avg)
				}
			}
		})
	}
}

// TestPlanStepIntrospection pins the fused-step reporting contract: a
// debugger walking Step(i) must account for every source layer exactly
// once, with fused steps exposing both the linear layer and the folded
// activation.
func TestPlanStepIntrospection(t *testing.T) {
	const n, classes, maxBatch = 64, 10, 8
	net := BuildSHL(Butterfly, n, classes, rand.New(rand.NewSource(3)))
	fused, err := net.CompilePlan(maxBatch)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	unfused, err := net.CompilePlanOpts(maxBatch, PlanOptions{NoFuse: true})
	if err != nil {
		t.Fatalf("CompilePlanOpts: %v", err)
	}

	if unfused.NumSteps() != 3 {
		t.Fatalf("unfused steps = %d, want 3", unfused.NumSteps())
	}
	for i, want := range []StepKind{StepLinear, StepActivation, StepLinear} {
		si := unfused.Step(i)
		if si.Kind != want || si.Act != nil {
			t.Fatalf("unfused step %d: kind=%v act=%v, want %v/nil", i, si.Kind, si.Act, want)
		}
	}

	if fused.NumSteps() != 2 {
		t.Fatalf("fused steps = %d, want 2", fused.NumSteps())
	}
	s0 := fused.Step(0)
	if s0.Kind != StepFused {
		t.Fatalf("step 0 kind = %v, want StepFused", s0.Kind)
	}
	if _, ok := s0.Layer.(*StructuredLinear); !ok {
		t.Fatalf("step 0 layer = %T, want *StructuredLinear", s0.Layer)
	}
	if _, ok := s0.Act.(*ReLU); !ok {
		t.Fatalf("step 0 act = %T, want *ReLU", s0.Act)
	}
	s1 := fused.Step(1)
	if s1.Kind != StepLinear || s1.Act != nil {
		t.Fatalf("step 1 = %+v, want plain linear", s1)
	}

	// Walking the step list must account for every model layer exactly
	// once, in order — fused steps contribute their linear layer and the
	// folded activation.
	next := 0
	for i := 0; i < fused.NumSteps(); i++ {
		si := fused.Step(i)
		if si.Layer != net.Layers[next] {
			t.Fatalf("step %d layer is not model layer %d", i, next)
		}
		next++
		if si.Act != nil {
			if si.Act != net.Layers[next] {
				t.Fatalf("step %d folded act is not model layer %d", i, next)
			}
			next++
		}
	}
	if next != len(net.Layers) {
		t.Fatalf("steps cover %d layers, want %d", next, len(net.Layers))
	}

	// Fused step names join both sources.
	if name := fused.Steps()[0]; name != unfused.Steps()[0]+"+"+unfused.Steps()[1] {
		t.Fatalf("fused step name %q does not join source names %q and %q",
			name, unfused.Steps()[0], unfused.Steps()[1])
	}
}

// TestPlanArenaSizingUnderFusion asserts the exact arena byte counts of
// fused and unfused plans: fusing the SHL's multiply+bias+ReLU into one
// step moves the classifier head to the second ping-pong arena, shrinking
// it from hidden width to class width, while the workspace holds the
// transform's exact declared scratch demand under fusion.
func TestPlanArenaSizingUnderFusion(t *testing.T) {
	const n, classes, maxBatch = 64, 10, 8
	net := BuildSHL(Butterfly, n, classes, rand.New(rand.NewSource(19)))
	fused, err := net.CompilePlan(maxBatch)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	unfused, err := net.CompilePlanOpts(maxBatch, PlanOptions{NoFuse: true})
	if err != nil {
		t.Fatalf("CompilePlanOpts: %v", err)
	}
	fs, us := fused.Stats(maxBatch), unfused.Stats(maxBatch)

	// Unfused: steps land [butterfly:A, relu:B, dense:A] — both arenas
	// hold the 64-wide hidden activation. 4 bytes × 8 rows × (64 + 64).
	if want := 4 * maxBatch * (n + n); us.ArenaBytes != want {
		t.Errorf("unfused ArenaBytes = %d, want %d", us.ArenaBytes, want)
	}
	// Fused: [butterfly+relu:A, dense:B] — arena B shrinks to the 10-wide
	// logits. 4 × 8 × (64 + 10).
	if want := 4 * maxBatch * (n + classes); fs.ArenaBytes != want {
		t.Errorf("fused ArenaBytes = %d, want %d", fs.ArenaBytes, want)
	}
	if fs.ArenaBytes >= us.ArenaBytes {
		t.Errorf("fusion did not shrink the arenas: %d >= %d", fs.ArenaBytes, us.ArenaBytes)
	}

	// The butterfly's ApplyInto (fused or not) stages one N-wide scratch
	// matrix through the workspace, and declares exactly that demand.
	if want := 4 * maxBatch * n; fs.WorkspaceBytes != want || us.WorkspaceBytes != want {
		t.Errorf("WorkspaceBytes fused=%d unfused=%d, want %d", fs.WorkspaceBytes, us.WorkspaceBytes, want)
	}

	// Modelled arena traffic at maxBatch, from the step silhouettes:
	// unfused (read in + write out + 2 sweeps per extra pass):
	//   butterfly 4·8·(64+64+2·64) + relu 4·8·(64+64) + dense 4·8·(64+10+2·10)
	wantUnfused := 4*maxBatch*(n+n+2*n) + 4*maxBatch*(n+n) + 4*maxBatch*(n+classes+2*classes)
	if us.TrafficBytes != wantUnfused {
		t.Errorf("unfused TrafficBytes = %d, want %d", us.TrafficBytes, wantUnfused)
	}
	wantFused := 4*maxBatch*(n+n) + 4*maxBatch*(n+classes+2*classes)
	if fs.TrafficBytes != wantFused {
		t.Errorf("fused TrafficBytes = %d, want %d", fs.TrafficBytes, wantFused)
	}
	if fs.TrafficBytesBeforeFusion != wantUnfused {
		t.Errorf("TrafficBytesBeforeFusion = %d, want %d", fs.TrafficBytesBeforeFusion, wantUnfused)
	}
	if 2*fs.TrafficBytes <= us.TrafficBytes {
		// the headline claim: fusing the SHL roughly halves arena traffic
		t.Logf("traffic reduction %.2fx", float64(us.TrafficBytes)/float64(fs.TrafficBytes))
	} else if float64(us.TrafficBytes)/float64(fs.TrafficBytes) < 1.5 {
		t.Errorf("fusion saved too little traffic: %d -> %d", us.TrafficBytes, fs.TrafficBytes)
	}

	// The instance holds what the lowering declares, and executing at
	// every batch size grows neither arena nor workspace.
	for batch := 0; batch <= maxBatch; batch++ {
		if batch > 0 {
			x := tensor.New(batch, n)
			x.FillRandom(rand.New(rand.NewSource(int64(20+batch))), 1)
			mustExecute(t, fused, x)
		}
		if got := 4 * (len(fused.bufA) + len(fused.bufB)); got != fs.ArenaBytes {
			t.Fatalf("after batch %d: arenas hold %d bytes, lowering declares %d", batch, got, fs.ArenaBytes)
		}
		if got := fused.ws.Capacity().Bytes(); got != fs.WorkspaceBytes {
			t.Fatalf("after batch %d: workspace holds %d bytes, lowering declares %d", batch, got, fs.WorkspaceBytes)
		}
	}
}

// TestPlanInstanceSharesPacks pins the point of Instance: an instance at
// another batch size runs the base's lowered steps, so every dense and
// factorised step holds the very PackedB the base packed, and only the
// buffers are its own.
func TestPlanInstanceSharesPacks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a, b := tensor.New(32, 4), tensor.New(4, 6)
	a.FillRandom(rng, 1)
	b.FillRandom(rng, 1)
	fd := &FactorizedDense{In: 32, Out: 6, Rank: 4, A: a, B: b, Bias: make([]float32, 6)}
	for _, tc := range []struct {
		name  string
		net   *Sequential
		packs int
	}{
		{"dense", BuildSHL(Baseline, 32, 6, rng), 2},
		{"factorised", NewSequential(fd, NewReLU(), NewDense(6, 3, rng)), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := tc.net.CompilePlan(8)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			inst, err := base.Instance(2)
			if err != nil {
				t.Fatalf("Instance: %v", err)
			}
			if inst.MaxBatch() != 2 || base.MaxBatch() != 8 {
				t.Fatalf("MaxBatch: instance %d, base %d", inst.MaxBatch(), base.MaxBatch())
			}
			packs := 0
			for i := range base.steps {
				bs, is := &base.steps[i], &inst.steps[i]
				if is.packedW != bs.packedW || is.packedA != bs.packedA {
					t.Errorf("step %d (%s): instance packs %p/%p, base %p/%p", i, bs.name, is.packedW, is.packedA, bs.packedW, bs.packedA)
				}
				for _, pk := range []*tensor.PackedB{bs.packedW, bs.packedA} {
					if pk != nil {
						packs++
					}
				}
			}
			if packs != tc.packs {
				t.Errorf("base holds %d packs, want %d", packs, tc.packs)
			}
			if &inst.bufA[0] == &base.bufA[0] || inst.ws == base.ws || inst.frame == base.frame {
				t.Error("instance shares the base's buffers")
			}
		})
	}
}

// TestLoweringDeclaresWindows pins what the shard planner reads: lowering
// declares every step's resident bytes (the model's parameters plus the
// butterfly's permutation table) and every window pass's shape, and Pack
// binds the passes' kernels on a copy, so the unpacked lowering keeps its
// unbound passes. Fastfood and circulant declare no window.
func TestLoweringDeclaresWindows(t *testing.T) {
	const n = 64
	for _, method := range AllMethods {
		net := BuildSHL(method, n, 10, rand.New(rand.NewSource(43)))
		low, err := net.Lower(PlanOptions{})
		if err != nil {
			t.Fatalf("%v: Lower: %v", method, err)
		}
		packed := low.Pack()
		bytes, want := 0, 4*net.ParamCount()
		if method == Butterfly {
			want += 8 * n
		}
		for i := 0; i < low.NumSteps(); i++ {
			bytes += low.Step(i).Bytes
			decl, bound := low.StepWindow(i), packed.StepWindow(i)
			if (method == Fastfood || method == Circulant) && i == 0 {
				if len(decl.Passes) != 0 {
					t.Errorf("%v step %d declares %d window passes, want none", method, i, len(decl.Passes))
				}
				continue
			}
			if len(decl.Passes) == 0 || len(bound.Passes) != len(decl.Passes) {
				t.Fatalf("%v step %d: %d declared passes, %d bound", method, i, len(decl.Passes), len(bound.Passes))
			}
			if decl.SharedBytes > low.Step(i).Bytes {
				t.Errorf("%v step %d: every window holds %d bytes of the step's %d", method, i, decl.SharedBytes, low.Step(i).Bytes)
			}
			for p, d := range decl.Passes {
				b := bound.Passes[p]
				if d.Run != nil || b.Run == nil {
					t.Errorf("%v step %d pass %d: declared kernel bound %v, packed kernel bound %v", method, i, p, d.Run != nil, b.Run != nil)
				}
				if d.Tag != b.Tag || d.Span != b.Span || d.Variant != b.Variant {
					t.Errorf("%v step %d pass %d: declared %q/%d/%q, packed %q/%d/%q", method, i, p, d.Tag, d.Span, d.Variant, b.Tag, b.Span, b.Variant)
				}
			}
		}
		if bytes != want {
			t.Errorf("%v: steps hold %d bytes, want %d", method, bytes, want)
		}
	}
}

// TestPlanInstanceWhileBaseExecutes builds instances while another
// goroutine executes the base, the way a serving worker materialises a
// new batch bucket while the base serves: under -race, Instance must read
// only what lowering fixed, and both must keep matching Infer.
func TestPlanInstanceWhileBaseExecutes(t *testing.T) {
	const n, classes, maxBatch = 64, 10, 8
	for _, method := range []Method{Baseline, Butterfly, Pixelfly} {
		t.Run(method.String(), func(t *testing.T) {
			net := BuildSHL(method, n, classes, rand.New(rand.NewSource(43)))
			base, err := net.CompilePlan(maxBatch)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			x := tensor.New(maxBatch, n)
			x.FillRandom(rand.New(rand.NewSource(44)), 1)
			want := net.Infer(x)
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					got, err := base.Execute(x)
					if err != nil {
						t.Errorf("base Execute: %v", err)
						return
					}
					if d := tensor.MaxAbsDiff(want, got); d != 0 {
						t.Errorf("base output differs from Infer by %g", d)
						return
					}
				}
			}()
			for _, mb := range []int{1, 2, 4, 8, 16} {
				inst, err := base.Instance(mb)
				if err != nil {
					t.Errorf("Instance(%d): %v", mb, err)
					break
				}
				rows := min(mb, maxBatch)
				xr := &tensor.Matrix{Rows: rows, Cols: n, Data: x.Data[:rows*n]}
				got, err := inst.Execute(xr)
				if err != nil {
					t.Errorf("Instance(%d) Execute: %v", mb, err)
					break
				}
				if d := tensor.MaxAbsDiff(&tensor.Matrix{Rows: rows, Cols: classes, Data: want.Data[:rows*classes]}, got); d != 0 {
					t.Errorf("Instance(%d) output differs from Infer by %g", mb, d)
				}
			}
			close(stop)
			<-done
		})
	}
}

// benchmarkPlanExecute measures steady-state Execute for one compile mode.
func benchmarkPlanExecute(b *testing.B, method Method, opts PlanOptions) {
	const n, classes, maxBatch = 256, 10, 16
	net := BuildSHL(method, n, classes, rand.New(rand.NewSource(50)))
	plan, err := net.CompilePlanOpts(maxBatch, opts)
	if err != nil {
		b.Fatalf("CompilePlanOpts: %v", err)
	}
	x := tensor.New(maxBatch, n)
	x.FillRandom(rand.New(rand.NewSource(51)), 1)
	if _, err := plan.Execute(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedPlanExecute / BenchmarkUnfusedPlanExecute compare the
// fused single-pass kernels against the three-sweep lowering — the
// host-side proxy for the modelled memory-traffic win.
func BenchmarkFusedPlanExecute(b *testing.B) {
	for _, method := range []Method{Baseline, Butterfly} {
		b.Run(method.String(), func(b *testing.B) { benchmarkPlanExecute(b, method, PlanOptions{}) })
	}
}

func BenchmarkUnfusedPlanExecute(b *testing.B) {
	for _, method := range []Method{Baseline, Butterfly} {
		b.Run(method.String(), func(b *testing.B) { benchmarkPlanExecute(b, method, PlanOptions{NoFuse: true}) })
	}
}

// BenchmarkPlanRows times full batches of each served family's N=1024
// SHL plan, compiled at MaxBatch 1 and at MaxBatch 64, and reports the
// cost per row: a family whose one-row figure is well above its per-row
// figure at 64 rows has kernels that fall off at the one-row batches the
// server runs.
func BenchmarkPlanRows(b *testing.B) {
	const n, classes = 1024, 10
	for _, method := range []Method{Baseline, Butterfly, Fastfood, Circulant, Pixelfly} {
		net := BuildSHL(method, n, classes, rand.New(rand.NewSource(52)))
		for _, rows := range []int{1, 64} {
			b.Run(fmt.Sprintf("%s/rows%d", method, rows), func(b *testing.B) {
				plan, err := net.CompilePlan(rows)
				if err != nil {
					b.Fatalf("CompilePlan: %v", err)
				}
				x := tensor.New(rows, n)
				x.FillRandom(rand.New(rand.NewSource(53)), 1)
				if _, err := plan.Execute(x); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := plan.Execute(x); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*rows), "us/row")
			})
		}
	}
}
