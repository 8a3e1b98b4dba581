package serve

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// registered registers sp in a fresh registry of ipus modelled IPUs that
// serves it on all of them, batching up to maxBatch rows; the registry
// closes when the test ends.
func registered(t *testing.T, sp ModelSpec, ipus, maxBatch int) (*Registry, *Model) {
	t.Helper()
	reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: maxBatch, Workers: 2}, NumIPUs: ipus, Shards: ipus})
	t.Cleanup(reg.Close)
	m, err := reg.Register(sp)
	if err != nil {
		t.Fatal(err)
	}
	return reg, m
}

func TestProgramCacheHitMissAccounting(t *testing.T) {
	sp := spec("m", nn.Butterfly)
	reg, m := registered(t, sp, 1, 16)

	cost1, err := m.ModelledCost(8)
	if err != nil {
		t.Fatal(err)
	}
	if cost1.Batch != 8 || cost1.LatencySeconds <= 0 {
		t.Fatalf("degenerate cost %+v", cost1)
	}
	if s := reg.CacheStats(); s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after first Cost: %+v, want 0 hits / 1 miss / 1 entry", s)
	}

	// A batch of 5 rounds up to the same bucket.
	cost2, err := m.ModelledCost(5)
	if err != nil {
		t.Fatal(err)
	}
	if cost2 != cost1 {
		t.Fatal("a second batch of the bucket did not return the priced program's cost")
	}
	if s := reg.CacheStats(); s.Hits != 1 || s.Misses != 1 || s.HitRate != 0.5 {
		t.Fatalf("after second Cost: %+v, want 1 hit / 1 miss", s)
	}

	// A different bucket is a different program.
	if _, err := m.ModelledCost(16); err != nil {
		t.Fatal(err)
	}
	if s := reg.CacheStats(); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("after a second bucket: %+v, want 2 misses / 2 entries", s)
	}
	// A new model version is a different program, and replacing the old
	// one evicts its two priced programs.
	m2, err := reg.Register(sp)
	if err != nil {
		t.Fatal(err)
	}
	if s := reg.CacheStats(); s.Evictions != 2 || s.Entries != 0 {
		t.Fatalf("after the replace: %+v, want 2 evictions / 0 entries", s)
	}
	if _, err := m2.ModelledCost(8); err != nil {
		t.Fatal(err)
	}
	if s := reg.CacheStats(); s.Misses != 3 || s.Entries != 1 {
		t.Fatalf("after pricing the new version: %+v, want 3 misses / 1 entry", s)
	}
}

func TestProgramCacheConcurrentColdKeyCompilesOnce(t *testing.T) {
	reg, m := registered(t, spec("m", nn.Pixelfly), 1, 8)

	const callers = 12
	var wg sync.WaitGroup
	costs := make([]*ProgramCost, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cost, err := m.ModelledCost(4)
			if err != nil {
				t.Errorf("Cost: %v", err)
				return
			}
			costs[i] = cost
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if costs[i] != costs[0] {
			t.Fatal("concurrent callers saw different compiled programs")
		}
	}
	s := reg.CacheStats()
	if s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
	if s.Hits+s.Misses != callers {
		t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, callers)
	}
}

func TestProgramCacheAllMethodsCompile(t *testing.T) {
	reg := testRegistry(t)
	for _, meth := range nn.AllMethods {
		m, err := reg.Register(spec("m-"+meth.String(), meth))
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		cost, err := m.ModelledCost(8)
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		if cost.LatencySeconds <= 0 || cost.PeakTileBytes <= 0 || cost.DeviceBytes <= 0 {
			t.Fatalf("%v: degenerate cost %+v", meth, cost)
		}
		if cost.PerRequestSeconds >= cost.LatencySeconds {
			t.Fatalf("%v: per-request %v not below batch latency %v",
				meth, cost.PerRequestSeconds, cost.LatencySeconds)
		}
	}
}

// CompileSeconds times the whole of pricing, building the workload graph
// included.
func TestCompileSecondsIncludesBuild(t *testing.T) {
	const pause = 20 * time.Millisecond
	cost, err := compileCost(ipu.GC200(), 1, func(cfg ipu.Config, b int) (*ipu.Workload, error) {
		time.Sleep(pause)
		return ipu.BuildCirculant(cfg, 64, b), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost.CompileSeconds < pause.Seconds() {
		t.Fatalf("CompileSeconds = %v, want at least the builder's %v", cost.CompileSeconds, pause)
	}
}

// TestProgramCacheRejectsBadBatch: a model holds programs for batches of
// 1 up to its largest bucket, the first power of two at or above
// MaxBatch, and prices nothing outside them.
func TestProgramCacheRejectsBadBatch(t *testing.T) {
	reg, m := registered(t, spec("m", nn.Baseline), 1, 6)
	for _, b := range []int{0, -1, 9, 64} {
		if _, err := m.ModelledCost(b); err == nil {
			t.Errorf("batch %d accepted by a model whose largest bucket is 8", b)
		}
	}
	if _, err := m.ModelledCost(8); err != nil {
		t.Fatalf("the largest bucket: %v", err)
	}
	if s := reg.CacheStats(); s.Hits+s.Misses != 1 {
		t.Fatalf("%+v: only the lookup of bucket 8 counts", s)
	}
}

// TestProgramCostFusionBlock checks the fusion silhouette surfaces on the
// modelled cost: executed vs lowered step counts, at least one fused step
// for an SHL, and reduced modelled arena traffic.
func TestProgramCostFusionBlock(t *testing.T) {
	sp := spec("m", nn.Butterfly)
	_, m := registered(t, sp, 1, 8)
	p, err := m.program(8)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := p.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if cost.PlanSteps == 0 || cost.PlanStepsUnfused <= cost.PlanSteps {
		t.Fatalf("fusion block missing or incoherent: steps=%d unfused=%d", cost.PlanSteps, cost.PlanStepsUnfused)
	}
	if cost.PlanFusedSteps < 1 {
		t.Fatalf("SHL program reports %d fused steps, want >= 1", cost.PlanFusedSteps)
	}
	if cost.TrafficBytes <= 0 || cost.TrafficBytes >= cost.TrafficBytesUnfused {
		t.Fatalf("modelled traffic not reduced: %d vs unfused %d", cost.TrafficBytes, cost.TrafficBytesUnfused)
	}
	if cost.PlanArenaBytes <= 0 {
		t.Fatalf("PlanArenaBytes = %d, want > 0", cost.PlanArenaBytes)
	}

	// Pricing builds no plan: the first GetPlan builds one, and it must
	// match Infer bit for bit.
	if n := len(p.idle); n != 0 {
		t.Fatalf("pricing left %d plans on the free list, want none", n)
	}
	pl, err := p.GetPlan()
	if err != nil {
		t.Fatal(err)
	}
	defer p.PutPlan(pl)
	if pl.MaxBatch() != 8 {
		t.Fatalf("built plan MaxBatch = %d, want 8", pl.MaxBatch())
	}
	x := tensor.New(8, sp.N)
	x.FillRandom(rand.New(rand.NewSource(7)), 1)
	want := m.net.Infer(x)
	got, err := pl.Execute(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("first built plan differs from Infer by %g, want bit for bit", d)
	}
}

// planPricedCost is the oracle of Program.Cost, kept as the cache priced
// programs before pricing read the lowering alone: the fusion block and
// the shard planner's verdict read off a plan compiled, packed and warmed
// up for the bucket.
func planPricedCost(t *testing.T, sp ModelSpec, batch, shards int, topo shard.Topology) ProgramCost {
	t.Helper()
	net, err := buildNet(sp)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := compileCost(ipu.GC200(), batch, func(cfg ipu.Config, b int) (*ipu.Workload, error) {
		return buildWorkload(cfg, sp, b)
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := net.CompilePlan(batch)
	if err != nil {
		t.Fatal(err)
	}
	warm := tensor.New(batch, sp.N)
	for i := 0; i < 2; i++ {
		if _, err := pl.Execute(warm); err != nil {
			t.Fatal(err)
		}
	}
	st := pl.Stats(batch)
	cost.PlanSteps = st.Steps
	cost.PlanStepsUnfused = st.StepsBeforeFusion
	cost.PlanFusedSteps = st.FusedSteps
	cost.PlanArenaBytes = 4 * batch * (sp.N + sp.Classes) // the fused SHL's two arenas
	cost.TrafficBytes = st.TrafficBytes
	cost.TrafficBytesUnfused = st.TrafficBytesBeforeFusion
	if shards > 1 {
		sc, err := shard.EstimateBudget(pl.Lowering, batch, shards, topo, 0)
		if err != nil {
			t.Fatal(err)
		}
		one, err := shard.EstimateBudget(pl.Lowering, batch, 1, topo, 0)
		if err != nil {
			t.Fatal(err)
		}
		cost.Shards = shards
		cost.Strategy = sc.StrategyName()
		cost.PerIPUBytes = sc.PerIPUBytes
		cost.ExchangeBytes = sc.ExchangeBytesPerBatch
		cost.ExchangeSeconds = sc.ExchangeSecondsPerBatch
		cost.MicroBatches = sc.MicroBatches
		cost.PipelineStages = sc.PipelineStages
		if one.ComputeSecondsPerBatch > 0 {
			cost.LatencySeconds *= sc.ComputeSecondsPerBatch / one.ComputeSecondsPerBatch
		}
		cost.LatencySeconds += sc.ExchangeSecondsPerBatch
		if sc.MicroBatches > 1 {
			if barrier := sc.ComputeSecondsPerBatch + sc.ExchangeSecondsPerBatch; barrier > 0 {
				cost.LatencySeconds *= sc.LatencySecondsPerBatch / barrier
			}
		}
		cost.PerRequestSeconds = cost.LatencySeconds / float64(batch)
	}
	cost.CompileSeconds = 0
	return *cost
}

// TestProgramCostMatchesPlanOracle pins pricing from the lowering alone
// to the plan-priced oracle: every field of every family's ProgramCost
// but CompileSeconds, on 1, 2 and 4 modelled IPUs at buckets 1-64, and
// the pricing builds no plan.
func TestProgramCostMatchesPlanOracle(t *testing.T) {
	topo := shard.DefaultTopology(4)
	for _, meth := range nn.AllMethods {
		sp := ModelSpec{Name: meth.String(), Method: meth, N: 256, Classes: 10, Seed: 42}
		for _, shards := range []int{1, 2, 4} {
			reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 64, Workers: 1}, NumIPUs: topo.NumIPUs, Shards: shards})
			m, err := reg.Register(sp)
			if err != nil {
				t.Fatal(err)
			}
			for b := 1; b <= 64; b *= 2 {
				got, err := m.ModelledCost(b)
				if err != nil {
					t.Fatalf("%v on %d IPUs at %d: %v", meth, shards, b, err)
				}
				g := *got
				g.CompileSeconds = 0
				if want := planPricedCost(t, sp, b, shards, topo); g != want {
					t.Errorf("%v on %d IPUs at %d:\n got  %+v\n want %+v", meth, shards, b, g, want)
				}
			}
			if m.exe != nil {
				t.Errorf("%v on %d IPUs: pricing packed the model", meth, shards)
			}
			for _, p := range m.progs {
				if len(p.idle) != 0 {
					t.Errorf("%v on %d IPUs: pricing left a plan on a free list", meth, shards)
				}
			}
			reg.Close()
		}
	}
}

// TestPlanBuildSecondsCountsBuilds pins the plan-build histogram: GetPlan
// observes it once for every plan it builds and never for a plan it hands
// back from the free list.
func TestPlanBuildSecondsCountsBuilds(t *testing.T) {
	for _, shards := range []int{1, 2} {
		reg := NewRegistry(Options{NumIPUs: shards, Shards: shards})
		m, err := reg.Register(spec("m", nn.Pixelfly))
		if err != nil {
			t.Fatal(err)
		}
		builds := func() int64 {
			var n int64
			for _, c := range reg.cache.planBuild.BucketCounts() {
				n += c
			}
			return n
		}
		if _, err := m.ModelledCost(4); err != nil {
			t.Fatal(err)
		}
		if n := builds(); n != 0 {
			t.Fatalf("%d IPUs: pricing observed %d plan builds, want 0", shards, n)
		}
		prog, err := m.program(4)
		if err != nil {
			t.Fatal(err)
		}
		var held []Executor
		for want := int64(1); want <= 3; want++ {
			pl, err := prog.GetPlan() // none idle: builds
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, pl)
			if n := builds(); n != want {
				t.Fatalf("%d IPUs: %d plan builds observed after %d builds", shards, n, want)
			}
		}
		for _, pl := range held {
			prog.PutPlan(pl)
		}
		for i := 0; i < 3; i++ {
			pl, err := prog.GetPlan() // idle: reused
			if err != nil {
				t.Fatal(err)
			}
			prog.PutPlan(pl)
		}
		if n := builds(); n != 3 {
			t.Fatalf("%d IPUs: reusing idle plans moved the build count to %d, want 3", shards, n)
		}
		reg.Close()
	}
}

// TestConcurrentFirstPlansShareLowering races the first GetPlan of
// several buckets of two fresh models, one on one modelled IPU and one on
// two: every plan built, pipeline and tensor-parallel alike, must run the
// one packed lowering its model made, and with it the one set of packs
// (packs live in the packed lowering, nn's TestPlanInstanceSharesPacks
// pins that every instance runs them, and shard's
// TestTensorParallelSharesPacks that a tensor-parallel plan copies none).
// The per-IPU budget puts the 2-IPU model on a pipeline at buckets 1 and
// 2, and on tensor parallelism from 4 up, where a pipeline stage no
// longer fits. CI repeats it under the race detector.
func TestConcurrentFirstPlansShareLowering(t *testing.T) {
	const budget = 22_000 // bytes per modelled IPU
	sp := spec("m", nn.Baseline)
	type got struct {
		m    *Model
		prog *Program
		pl   Executor
	}
	var models []*Model
	var progs []got
	for _, ipus := range []int{1, 2} {
		reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 8, Workers: 1}, NumIPUs: ipus, Shards: ipus, PerIPUMemBytes: budget})
		t.Cleanup(reg.Close)
		m, err := reg.Register(sp)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
		for _, p := range m.progs {
			progs = append(progs, got{m, p, nil}, got{m, p, nil})
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			pl, err := progs[i].prog.GetPlan()
			if err != nil {
				t.Error(err)
				return
			}
			progs[i].pl = pl
		}()
	}
	close(start)
	wg.Wait()
	for _, m := range models {
		if m.exe == nil {
			t.Fatalf("no packed lowering on %d IPUs after the first plans", m.shards)
		}
	}
	x := tensor.New(1, sp.N)
	x.FillRandom(rand.New(rand.NewSource(9)), 1)
	want := models[0].net.Infer(x)
	strategies := map[shard.Strategy]bool{}
	for _, g := range progs {
		if g.pl == nil {
			continue
		}
		var low *nn.Lowering
		switch pl := g.pl.(type) {
		case *nn.Plan:
			low = pl.Lowering
		case *shard.ShardedPlan:
			strategies[pl.Strategy()] = true
			low = pl.Lowering()
		}
		if low != g.m.exe {
			t.Errorf("a plan at bucket %d on %d IPUs runs lowering %p, the model packed %p", g.prog.batch, g.m.shards, low, g.m.exe)
		}
		y, err := g.pl.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(want, y); d != 0 {
			t.Errorf("a plan at bucket %d on %d IPUs differs from Infer by %g", g.prog.batch, g.m.shards, d)
		}
		g.prog.PutPlan(g.pl)
	}
	if !strategies[shard.Pipeline] || !strategies[shard.TensorParallel] {
		t.Errorf("the sharded plans ran %v; the budget should give both strategies", strategies)
	}
}

// TestProgramPlansSurviveGC pins the free list's ownership: an idle plan
// stays with its program across garbage collections, so the next GetPlan
// hands the same executor back instead of compiling another.
func TestProgramPlansSurviveGC(t *testing.T) {
	for _, shards := range []int{1, 2} {
		_, m := registered(t, spec("m", nn.Butterfly), shards, 8)
		p, err := m.program(4)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := p.GetPlan()
		if err != nil {
			t.Fatal(err)
		}
		if pl.MaxBatch() != 4 {
			t.Fatalf("%d shards: the bucket-4 plan takes %d rows", shards, pl.MaxBatch())
		}
		p.PutPlan(pl)
		runtime.GC()
		runtime.GC()
		again, err := p.GetPlan()
		if err != nil {
			t.Fatal(err)
		}
		if again != pl {
			t.Fatalf("%d shards: GetPlan after two collections compiled a new plan", shards)
		}
		p.PutPlan(again)
	}
}
