package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/shard"
)

// costOf prices sp's program at one batch bucket on one IPU: the lookup
// Model.ModelledCost makes for every request.
func costOf(c *ProgramCache, sp ModelSpec, version, batch int) (*ProgramCost, error) {
	net, err := buildNet(sp)
	if err != nil {
		return nil, err
	}
	p, err := c.Program(sp.Name, version, batch, 1, net, func(cfg ipu.Config, b int) (*ipu.Workload, error) {
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

	cost1, err := costOf(c, sp, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cost1.Batch != 8 || cost1.LatencySeconds <= 0 {
		t.Fatalf("degenerate cost %+v", cost1)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first Cost: %+v, want 0 hits / 1 miss", s)
	}

	cost2, err := costOf(c, sp, 1, 8)
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
	if _, err := costOf(c, sp, 1, 16); err != nil {
		t.Fatal(err)
	}
	// A different model version is a different program.
	if _, err := costOf(c, sp, 2, 8); err != nil {
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
			cost, err := costOf(c, sp, 1, 4)
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
		cost, err := costOf(c, spec("m-"+m.String(), m), 1, 8)
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
	if _, err := costOf(c, spec("m", nn.Baseline), 1, 0); err == nil {
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

	// The plan compiled for the fusion block is donated to the pool: the
	// first GetPlan must not compile again but still execute correctly.
	pl, err := p.GetPlan()
	if err != nil {
		t.Fatal(err)
	}
	if pl.MaxBatch() != 8 {
		t.Fatalf("pooled plan MaxBatch = %d, want 8", pl.MaxBatch())
	}
	p.PutPlan(pl)
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
