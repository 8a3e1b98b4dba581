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

// costOf prices sp's program at one batch bucket on shards modelled IPUs:
// the lookup Model.ModelledCost makes for every request.
func costOf(c *ProgramCache, sp ModelSpec, version, batch, shards int) (*ProgramCost, error) {
	net, err := buildNet(sp)
	if err != nil {
		return nil, err
	}
	p, err := c.Program(sp.Name, version, batch, shards, net, func(cfg ipu.Config, b int) (*ipu.Workload, error) {
		return buildWorkload(cfg, sp, b)
	})
	if err != nil {
		return nil, err
	}
	return p.Cost()
}

func TestProgramCacheHitMissAccounting(t *testing.T) {
	c := NewShardedProgramCache(ipu.GC200(), shard.DefaultTopology(1), 0)
	sp := spec("m", nn.Butterfly)

	cost1, err := costOf(c, sp, 1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cost1.Batch != 8 || cost1.LatencySeconds <= 0 {
		t.Fatalf("degenerate cost %+v", cost1)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first Cost: %+v, want 0 hits / 1 miss", s)
	}

	cost2, err := costOf(c, sp, 1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cost2 != cost1 {
		t.Fatal("second Cost did not return the cached entry")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.HitRate != 0.5 {
		t.Fatalf("after second Cost: %+v, want 1 hit / 1 miss", s)
	}

	// A different batch size is a different program.
	if _, err := costOf(c, sp, 1, 16, 1); err != nil {
		t.Fatal(err)
	}
	// A different model version is a different program.
	if _, err := costOf(c, sp, 2, 8, 1); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 3 || s.Entries != 3 {
		t.Fatalf("after distinct keys: %+v, want 3 misses / 3 entries", s)
	}
}

func TestProgramCacheConcurrentColdKeyCompilesOnce(t *testing.T) {
	c := NewShardedProgramCache(ipu.GC200(), shard.DefaultTopology(1), 0)
	sp := spec("m", nn.Pixelfly)

	const callers = 12
	var wg sync.WaitGroup
	costs := make([]*ProgramCost, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cost, err := costOf(c, sp, 1, 4, 1)
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
	s := c.Stats()
	if s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
	if s.Hits+s.Misses != callers {
		t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, callers)
	}
}

func TestProgramCacheAllMethodsCompile(t *testing.T) {
	c := NewShardedProgramCache(ipu.GC200(), shard.DefaultTopology(1), 0)
	for _, m := range nn.AllMethods {
		cost, err := costOf(c, spec("m-"+m.String(), m), 1, 8, 1)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if cost.LatencySeconds <= 0 || cost.PeakTileBytes <= 0 || cost.DeviceBytes <= 0 {
			t.Fatalf("%v: degenerate cost %+v", m, cost)
		}
		if cost.PerRequestSeconds >= cost.LatencySeconds {
			t.Fatalf("%v: per-request %v not below batch latency %v",
				m, cost.PerRequestSeconds, cost.LatencySeconds)
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

func TestProgramCacheRejectsBadBatch(t *testing.T) {
	c := NewShardedProgramCache(ipu.GC200(), shard.DefaultTopology(1), 0)
	if _, err := costOf(c, spec("m", nn.Baseline), 1, 0, 1); err == nil {
		t.Fatal("batch 0 accepted")
	}
}

// TestProgramCostFusionBlock checks the fusion silhouette surfaces on the
// modelled cost: executed vs lowered step counts, at least one fused step
// for an SHL, and reduced modelled arena traffic.
func TestProgramCostFusionBlock(t *testing.T) {
	c := NewShardedProgramCache(ipu.GC200(), shard.DefaultTopology(1), 0)
	sp := spec("m", nn.Butterfly)

	net, err := buildNet(sp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Program("m", 1, 8, 1, net, func(cfg ipu.Config, b int) (*ipu.Workload, error) {
		return buildWorkload(cfg, sp, b)
	})
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
	want := net.Infer(x)
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
	for _, m := range nn.AllMethods {
		sp := ModelSpec{Name: m.String(), Method: m, N: 256, Classes: 10, Seed: 42}
		for _, shards := range []int{1, 2, 4} {
			c := NewShardedProgramCache(ipu.GC200(), topo, 0)
			for b := 1; b <= 64; b *= 2 {
				got, err := costOf(c, sp, 1, b, shards)
				if err != nil {
					t.Fatalf("%v on %d IPUs at %d: %v", m, shards, b, err)
				}
				g := *got
				g.CompileSeconds = 0
				if want := planPricedCost(t, sp, b, shards, topo); g != want {
					t.Errorf("%v on %d IPUs at %d:\n got  %+v\n want %+v", m, shards, b, g, want)
				}
			}
			src := c.sources[sourceKey{model: sp.Name, version: 1}]
			if src.exe != nil {
				t.Errorf("%v on %d IPUs: pricing packed the model", m, shards)
			}
			for _, p := range c.entries {
				if len(p.idle) != 0 {
					t.Errorf("%v on %d IPUs: pricing left a plan on a free list", m, shards)
				}
			}
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
			for _, c := range reg.cache.mets.planBuild.BucketCounts() {
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
		prog, err := reg.cache.programQuiet(m.spec.Name, m.version, 4, m.shards, m.net, m.workload)
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
// several buckets of a fresh model, on one modelled IPU and on two: every
// plan built, pipeline and tensor-parallel alike, must run the one packed
// lowering the plan source made, and with it the one set of packs (packs
// live in the packed lowering, nn's TestPlanInstanceSharesPacks pins that
// every instance runs them, and shard's TestTensorParallelSharesPacks
// that a tensor-parallel plan copies none). The per-IPU budget puts the
// model on a pipeline at buckets 1 and 2, and on tensor parallelism from
// 4 up, where a pipeline stage no longer fits. CI repeats it under the
// race detector.
func TestConcurrentFirstPlansShareLowering(t *testing.T) {
	const budget = 22_000 // bytes per modelled IPU
	c := NewShardedProgramCache(ipu.GC200(), shard.DefaultTopology(2), budget)
	defer c.Evict("m", 1)
	sp := spec("m", nn.Baseline)
	net, err := buildNet(sp)
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg ipu.Config, b int) (*ipu.Workload, error) { return buildWorkload(cfg, sp, b) }
	type got struct {
		prog *Program
		pl   Executor
	}
	var progs []*Program
	for _, shards := range []int{1, 2} {
		for b := 1; b <= 8; b *= 2 {
			p, err := c.Program(sp.Name, 1, b, shards, net, build)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, p, p)
		}
	}
	start := make(chan struct{})
	out := make([]got, len(progs))
	var wg sync.WaitGroup
	for i, p := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			pl, err := p.GetPlan()
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = got{p, pl}
		}()
	}
	close(start)
	wg.Wait()
	src := c.sources[sourceKey{model: sp.Name, version: 1}]
	if src.exe == nil {
		t.Fatal("no packed lowering after the first plans")
	}
	x := tensor.New(1, sp.N)
	x.FillRandom(rand.New(rand.NewSource(9)), 1)
	want := net.Infer(x)
	strategies := map[shard.Strategy]bool{}
	for _, g := range out {
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
		if low != src.exe {
			t.Errorf("a plan at bucket %d on %d IPUs runs lowering %p, the source packed %p", g.prog.batch, g.prog.shards, low, src.exe)
		}
		y, err := g.pl.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(want, y); d != 0 {
			t.Errorf("a plan at bucket %d on %d IPUs differs from Infer by %g", g.prog.batch, g.prog.shards, d)
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
	c := NewShardedProgramCache(ipu.GC200(), shard.DefaultTopology(2), 0)
	sp := spec("m", nn.Butterfly)
	defer c.Evict(sp.Name, 1)
	net, err := buildNet(sp)
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg ipu.Config, b int) (*ipu.Workload, error) { return buildWorkload(cfg, sp, b) }
	for _, shards := range []int{1, 2} {
		p, err := c.Program(sp.Name, 1, 4, shards, net, build)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := p.GetPlan()
		if err != nil {
			t.Fatal(err)
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
