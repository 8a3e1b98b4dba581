package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// ProgramCost is the modelled device cost of one compiled batch program —
// what Poplar would report after compiling the layer for that batch size.
type ProgramCost struct {
	Workload string `json:"workload"`
	Batch    int    `json:"batch"`

	// Modelled time of one batch execution and its per-request share.
	LatencySeconds    float64 `json:"latency_s"`
	PerRequestSeconds float64 `json:"per_request_s"`
	Cycles            float64 `json:"cycles"`

	// Memory accounting of the compiled program.
	PeakTileBytes int `json:"peak_tile_bytes"`
	DeviceBytes   int `json:"device_bytes"`
	ComputeSets   int `json:"compute_sets"`

	// CompileSeconds is the wall time the cache miss spent pricing the
	// program on the IPU model: building the batch's workload graph,
	// ipu.Compile and ipu.Simulate. It leaves out the host lowering and
	// the shard planner. Hits pay zero.
	CompileSeconds float64 `json:"compile_s"`

	// Sharding block, present when the program spans several modelled
	// IPUs. LatencySeconds/PerRequestSeconds above already include the
	// exchange time and the tensor-parallel compute split.
	Shards          int     `json:"shards,omitempty"`
	Strategy        string  `json:"strategy,omitempty"`
	PerIPUBytes     int     `json:"per_ipu_bytes,omitempty"`
	ExchangeBytes   int     `json:"exchange_bytes,omitempty"`
	ExchangeSeconds float64 `json:"exchange_s,omitempty"`
	// MicroBatches is the wavefront width the pipeline schedule was priced
	// at (1 = the stages in series; 0/omitted under tensor parallelism), and
	// PipelineStages the effective stage count after clamping to the plan's
	// step count.
	MicroBatches   int `json:"micro_batches,omitempty"`
	PipelineStages int `json:"pipeline_stages,omitempty"`

	// Fusion block: the lowering's step-fusion verdict — executed vs
	// lowered step count, steps carrying a folded activation, the
	// activation-arena bytes a plan for the bucket holds, and the modelled
	// arena traffic of one batch against what the unfused step list would
	// move.
	PlanSteps           int `json:"plan_steps,omitempty"`
	PlanStepsUnfused    int `json:"plan_steps_unfused,omitempty"`
	PlanFusedSteps      int `json:"plan_fused_steps,omitempty"`
	PlanArenaBytes      int `json:"plan_arena_bytes,omitempty"`
	TrafficBytes        int `json:"traffic_bytes,omitempty"`
	TrafficBytesUnfused int `json:"traffic_bytes_unfused,omitempty"`
}

// CacheStats exposes the hit/miss counters of the program cache.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

type programKey struct {
	model   string
	version int
	batch   int
	shards  int
}

// Executor is the host-side compiled program the batch path runs:
// nn.Plan on one modelled IPU, shard.ShardedPlan across several. Both are
// single-goroutine objects; a Program owns the idle ones and lends each to
// one worker at a time.
type Executor interface {
	Execute(x *tensor.Matrix) (*tensor.Matrix, error)
	MaxBatch() int
}

// closer is the shutdown hook of executors that own goroutines
// (shard.ShardedPlan); nn.Plan owns none, so dropping it is enough.
type closer interface {
	Close()
}

// closePlan ends an executor the Program will not hand out again.
func closePlan(pl Executor) {
	if c, ok := pl.(closer); ok {
		c.Close()
	}
}

// Program is the cache's unit of work: everything compiled once per
// (model, version, pow2-batch, shards) key. It bundles the modelled IPU
// cost of the batch program with a free list of host execution plans
// (nn.Plan, or shard.ShardedPlan when the model is sharded) sized for the
// same batch bucket, so the micro-batcher's workers run allocation-free
// and every response can report device cost without recompiling. Cost
// reads the (model, version)'s lowering and builds no plan; GetPlan is
// the one place a plan is built, over the plan source's packed lowering,
// so every program of one model version shares one lowering and one copy
// of the packed weights. The Program is the plans' sole owner: they stay
// until the cache evicts it, which closes them.
type Program struct {
	batch  int
	shards int
	topo   shard.Topology
	budget int

	costOnce sync.Once
	costDone atomic.Bool
	cost     *ProgramCost
	costErr  error
	cfg      ipu.Config
	build    workloadBuilder
	mets     *cacheMetrics // inherited from the cache; nil when uninstrumented

	// src lowers the host network once per (model, version) and packs it
	// when the first plan is built; every plan the program builds runs
	// its lowering.
	src *planSource

	// idle is the LIFO free list of plans no caller holds. It needs no
	// cap: GetPlan builds only when none is idle, so it holds at most the
	// plans that were out at one moment (the model's batcher workers and
	// a readiness probe). closed is set by eviction; plans returned
	// afterwards are closed.
	mu     sync.Mutex
	idle   []Executor
	closed bool

	// scOnce memoizes the shard planner's verdict (strategy, per-IPU
	// memory, exchange) and the 1-shard reference estimate, so GetPlan
	// misses and Cost share one estimate per program.
	scOnce sync.Once
	sc     shard.Cost
	scOne  shard.Cost
	scErr  error
}

// Cost returns the memoized modelled IPU cost; the first caller pays the
// compile, concurrent callers block on it, and failures (e.g. tile OOM)
// are cached because the retry would fail identically. The fusion block
// and, for sharded programs, the shard planner's per-IPU memory and
// IPU-Link exchange verdict are read from the model's lowering.
func (p *Program) Cost() (*ProgramCost, error) {
	p.costOnce.Do(func() {
		p.cost, p.costErr = p.price()
		p.costDone.Store(true)
	})
	return p.cost, p.costErr
}

// price compiles the program on the IPU model and annotates the cost
// with the lowering's fusion silhouette (step counts, arena bytes,
// modelled activation-arena traffic) and, for a sharded program, the
// shard planner's verdict.
func (p *Program) price() (*ProgramCost, error) {
	cost, err := compileCost(p.cfg, p.batch, p.build)
	if err != nil {
		return nil, err
	}
	if p.mets != nil {
		p.mets.compile.Observe(cost.CompileSeconds)
	}
	low, err := p.src.lowering()
	if err != nil {
		return nil, fmt.Errorf("serve: lowering host plan for fusion cost: %w", err)
	}
	st := low.Stats(p.batch)
	cost.PlanSteps = st.Steps
	cost.PlanStepsUnfused = st.StepsBeforeFusion
	cost.PlanFusedSteps = st.FusedSteps
	cost.PlanArenaBytes = st.ArenaBytes
	cost.TrafficBytes = st.TrafficBytes
	cost.TrafficBytesUnfused = st.TrafficBytesBeforeFusion
	if p.shards > 1 {
		if err := p.shardCost(cost); err != nil {
			return nil, err
		}
	}
	return cost, nil
}

// shardEstimate memoizes the shard planner's verdict for this program,
// priced on the model's lowering.
func (p *Program) shardEstimate() (shard.Cost, error) {
	p.scOnce.Do(func() {
		low, err := p.src.lowering()
		if err != nil {
			p.scErr = err
			return
		}
		if p.sc, p.scErr = shard.EstimateBudget(low, p.batch, p.shards, p.topo, p.budget); p.scErr != nil {
			return
		}
		p.scOne, p.scErr = shard.EstimateBudget(low, p.batch, 1, p.topo, p.budget)
	})
	return p.sc, p.scErr
}

// shardCost folds the shard planner's estimate into a single-chip program
// cost: per-IPU residency, exchange traffic, and the latency of the
// partitioned run. The compute portion is scaled by the planner's own
// sharded-vs-unsharded compute ratio (1 for pipeline; between 1/S and 1
// for tensor parallelism, which runs as long as each step's widest
// window, and whose replicated rank bottlenecks do not divide), keeping
// the served latency consistent with the planner's Cost for the same
// lowering.
func (p *Program) shardCost(cost *ProgramCost) error {
	sc, err := p.shardEstimate()
	if err != nil {
		return err
	}
	one := p.scOne
	cost.Shards = p.shards
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
		// The wavefront overlaps stages and exchange, so the planner's
		// scheduled latency sits below compute+exchange; apply the same
		// dimensionless speedup to the device-scale latency.
		if barrier := sc.ComputeSecondsPerBatch + sc.ExchangeSecondsPerBatch; barrier > 0 {
			cost.LatencySeconds *= sc.LatencySecondsPerBatch / barrier
		}
	}
	cost.PerRequestSeconds = cost.LatencySeconds / float64(p.batch)
	return nil
}

// GetPlan hands out an idle host execution plan — sharded across the
// program's modelled IPUs when shards > 1 — building a fresh one when
// none is idle, and times each build into the plan-build histogram.
// Callers must return it with PutPlan after copying anything they need
// out of its buffers.
func (p *Program) GetPlan() (Executor, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		pl := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pl, nil
	}
	p.mu.Unlock()
	start := time.Now()
	pl, err := p.newPlan()
	if err == nil && p.mets != nil {
		p.mets.planBuild.Observe(time.Since(start).Seconds())
	}
	return pl, err
}

// newPlan builds one host plan for the program's bucket over the plan
// source's packed lowering: an instance of it on one IPU, or a sharded
// plan under the planner's strategy, whose pipeline stages and
// tensor-parallel windows run the lowering's own kernels and packs.
func (p *Program) newPlan() (Executor, error) {
	low, err := p.src.packed()
	if err != nil {
		return nil, err
	}
	if p.shards <= 1 {
		return low.Instance(p.batch)
	}
	sc, err := p.shardEstimate()
	if err != nil {
		return nil, err
	}
	return shard.CompileMicro(low, p.batch, p.topo, p.shards, sc.Strategy, sc.MicroBatches)
}

// PutPlan returns a plan obtained from GetPlan to the free list, or
// closes it when the program has been evicted.
func (p *Program) PutPlan(pl Executor) {
	if pl == nil {
		return
	}
	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.idle = append(p.idle, pl)
	}
	p.mu.Unlock()
	if closed {
		closePlan(pl)
	}
}

// close closes every idle plan and makes PutPlan close the rest as they
// come back. Callers still holding the program keep working.
func (p *Program) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, pl := range idle {
		closePlan(pl)
	}
}

// planSource holds one (model, version)'s lowering: the network is
// lowered once, when the first program is priced or builds a plan, and
// packed once, when the first plan is built. Both happen under the
// source's lock, so programs that miss at once share one lowering and
// one set of packs; every host plan, at any batch bucket, on one IPU or
// sharded under either strategy, runs them.
type planSource struct {
	net *nn.Sequential

	mu     sync.Mutex
	low    *nn.Lowering // unpacked: what pricing and the planner read
	lowErr error
	exe    *nn.Lowering // low packed: what plans run
}

// lowering returns the model's lowering, lowering the network on first
// use. A failure is kept, since lowering the same network fails again.
func (s *planSource) lowering() (*nn.Lowering, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lowerLocked()
}

func (s *planSource) lowerLocked() (*nn.Lowering, error) {
	if s.low == nil && s.lowErr == nil {
		s.low, s.lowErr = s.net.Lower(nn.PlanOptions{})
	}
	return s.low, s.lowErr
}

// packed returns the packed lowering plans run, packing the model's
// weights on first use.
func (s *planSource) packed() (*nn.Lowering, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exe == nil {
		low, err := s.lowerLocked()
		if err != nil {
			return nil, err
		}
		s.exe = low.Pack()
	}
	return s.exe, nil
}

// sourceKey names the plan source of one (model, version).
type sourceKey struct {
	model   string
	version int
}

// ProgramCache memoizes compiled programs — host plan free list plus
// modelled IPU cost — per (model, version, batch bucket, shard count), so the
// serving path compiles each artifact at most once and every request
// rides prebuilt state. The programs of one (model, version) share one
// plan source, so the model is lowered and its weights packed once.
type ProgramCache struct {
	cfg    ipu.Config
	topo   shard.Topology
	budget int

	mu      sync.Mutex
	entries map[programKey]*Program
	sources map[sourceKey]*planSource

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// mets is the cache's instrument set, installed once (before any
	// Program exists) by the owning registry; nil when uninstrumented.
	mets *cacheMetrics
}

// NewShardedProgramCache creates a cache that can also compile programs
// partitioned across the topology's modelled IPUs, auto-picking the
// partitioning strategy against the per-IPU memory budget (0 = full
// SRAM).
func NewShardedProgramCache(cfg ipu.Config, topo shard.Topology, budgetBytes int) *ProgramCache {
	return &ProgramCache{cfg: cfg, topo: topo, budget: budgetBytes,
		entries: map[programKey]*Program{}, sources: map[sourceKey]*planSource{}}
}

// workloadBuilder produces the IPU workload whose compiled program prices
// a model at one batch size. The registry installs a layout-aware builder
// for compressed models; spec-built models go through buildWorkload.
type workloadBuilder func(cfg ipu.Config, batch int) (*ipu.Workload, error)

// Program returns the compiled artifact for the key, creating it on first
// use (and the (model, version)'s plan source, lowering net, with the
// first such program), and counts the lookup in the hit/miss statistics
// (one count per served request — the semantics the perf trajectory
// records). The modelled cost is not compiled here — Cost does that
// lazily, memoized.
func (c *ProgramCache) Program(name string, version, batch, shards int, net *nn.Sequential, build workloadBuilder) (*Program, error) {
	return c.lookup(name, version, batch, shards, net, build, true)
}

// programQuiet is Program without touching the hit/miss counters — the
// per-batch execution path uses it so batching behaviour doesn't skew the
// per-request cache statistics.
func (c *ProgramCache) programQuiet(name string, version, batch, shards int, net *nn.Sequential, build workloadBuilder) (*Program, error) {
	return c.lookup(name, version, batch, shards, net, build, false)
}

func (c *ProgramCache) lookup(name string, version, batch, shards int, net *nn.Sequential, build workloadBuilder, count bool) (*Program, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("serve: cache batch %d must be positive", batch)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > 1 && shards > c.topo.NumIPUs {
		return nil, fmt.Errorf("serve: %d shards exceed the cache topology of %d IPUs", shards, c.topo.NumIPUs)
	}
	key := programKey{model: name, version: version, batch: batch, shards: shards}
	c.mu.Lock()
	p, ok := c.entries[key]
	if !ok {
		sk := sourceKey{model: name, version: version}
		src := c.sources[sk]
		if src == nil {
			src = &planSource{net: net}
			c.sources[sk] = src
		}
		p = &Program{batch: batch, shards: shards, topo: c.topo, budget: c.budget, cfg: c.cfg, build: build, mets: c.mets, src: src}
		c.entries[key] = p
	}
	if count {
		// A hit means the request rode an already-compiled program; a
		// lookup before the cost compile finished (including one that
		// finds an entry the uncounted batch path just created) still
		// pays or waits on the compile, so it counts as a miss.
		if ok && p.costDone.Load() {
			c.hits.Add(1)
		} else {
			c.misses.Add(1)
		}
	}
	c.mu.Unlock()
	return p, nil
}

// Evict drops every cached program of one (model, version) and its plan
// source, releasing the pinned network weights and packs of a replaced or
// removed model and closing the programs' idle plans. Programs still held
// by in-flight callers stay usable; a plan those callers compile or
// return afterwards is closed when it comes back. Callers must stop the model's batcher first so no
// new lookups can resurrect the entries.
func (c *ProgramCache) Evict(name string, version int) {
	var dropped []*Program
	c.mu.Lock()
	for k, p := range c.entries {
		if k.model == name && k.version == version {
			delete(c.entries, k)
			dropped = append(dropped, p)
			c.evictions.Add(1)
		}
	}
	delete(c.sources, sourceKey{model: name, version: version})
	c.mu.Unlock()
	for _, p := range dropped {
		p.close()
	}
}

// Stats snapshots the hit/miss counters.
func (c *ProgramCache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// compileCost builds the structured-layer workload for the batch, compiles
// it, and prices it with the BSP cost model. The workload covers the N×N
// structured layer — the part that differs between methods and dominates
// the SHL — not the small dense classifier head.
func compileCost(cfg ipu.Config, batch int, build workloadBuilder) (cost *ProgramCost, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: building workload: %v", r)
		}
	}()
	start := time.Now()
	w, err := build(cfg, batch)
	if err != nil {
		return nil, err
	}
	compiled, err := ipu.Compile(w.Graph)
	if err != nil {
		return nil, fmt.Errorf("serve: compiling %s: %w", w.Name, err)
	}
	rep := ipu.Simulate(compiled)
	return &ProgramCost{
		Workload:          w.Name,
		Batch:             batch,
		LatencySeconds:    rep.Seconds(),
		PerRequestSeconds: rep.Seconds() / float64(batch),
		Cycles:            rep.TotalCycles,
		PeakTileBytes:     compiled.PeakBytes,
		DeviceBytes:       compiled.Device.Total(),
		ComputeSets:       compiled.NumComputeSets,
		CompileSeconds:    time.Since(start).Seconds(),
	}, nil
}

// buildWorkload maps a model spec to the matching ipu workload builder,
// converting builder panics into errors.
func buildWorkload(cfg ipu.Config, spec ModelSpec, batch int) (w *ipu.Workload, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: building workload for %q: %v", spec.Name, r)
		}
	}()
	switch spec.Method {
	case nn.Baseline:
		return ipu.BuildLinear(cfg, spec.N, batch), nil
	case nn.Butterfly:
		return ipu.BuildButterflyMM(cfg, spec.N, batch), nil
	case nn.Fastfood:
		return ipu.BuildFastfood(cfg, spec.N, batch), nil
	case nn.Circulant:
		return ipu.BuildCirculant(cfg, spec.N, batch), nil
	case nn.LowRank:
		return ipu.BuildLowRank(cfg, spec.N, 1, batch), nil
	case nn.Pixelfly:
		return ipu.BuildPixelflyMM(cfg, spec.pixelflyConfig(), batch), nil
	default:
		return nil, fmt.Errorf("serve: no workload builder for method %v", spec.Method)
	}
}
