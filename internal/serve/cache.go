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

// CacheStats exposes the program counters: ModelledCost lookups that
// found their bucket already priced (hits) or paid or waited on its
// pricing (misses), and the priced programs of the registered models
// (entries) and of models since replaced or removed (evictions).
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
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

// Program is one model version's compiled artifact for one power-of-two
// batch bucket: the modelled IPU cost of the batch program and a free
// list of host execution plans (nn.Plan, or shard.ShardedPlan when the
// model is sharded) sized for the bucket, so the micro-batcher's workers
// run allocation-free and every response can report device cost without
// recompiling. The model creates one per bucket when it is installed.
// Cost reads the model's lowering and builds no plan; GetPlan is the one
// place a plan is built, over the model's packed lowering, so every plan
// of a model version runs one lowering and one copy of the packed
// weights. The Program is the plans' sole owner: they stay until the
// model stops, which closes them.
type Program struct {
	m     *Model
	batch int

	costOnce sync.Once
	costDone atomic.Bool
	cost     *ProgramCost
	costErr  error

	// idle is the LIFO free list of plans no caller holds. It needs no
	// cap: GetPlan builds only when none is idle, so it holds at most the
	// plans that were out at one moment (the model's batcher workers and
	// a readiness probe). closed is set when the model stops; plans
	// returned afterwards are closed.
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
	cost, err := compileCost(p.m.topo.IPU, p.batch, p.m.workload)
	if err != nil {
		return nil, err
	}
	p.m.cache.compile.Observe(cost.CompileSeconds)
	st := p.m.low.Stats(p.batch)
	cost.PlanSteps = st.Steps
	cost.PlanStepsUnfused = st.StepsBeforeFusion
	cost.PlanFusedSteps = st.FusedSteps
	cost.PlanArenaBytes = st.ArenaBytes
	cost.TrafficBytes = st.TrafficBytes
	cost.TrafficBytesUnfused = st.TrafficBytesBeforeFusion
	if p.m.shards > 1 {
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
		m := p.m
		if p.sc, p.scErr = shard.EstimateBudget(m.low, p.batch, m.shards, m.topo, m.budget); p.scErr != nil {
			return
		}
		p.scOne, p.scErr = shard.EstimateBudget(m.low, p.batch, 1, m.topo, m.budget)
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
	cost.Shards = p.m.shards
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
	if err == nil {
		p.m.cache.planBuild.Observe(time.Since(start).Seconds())
	}
	return pl, err
}

// newPlan builds one host plan for the program's bucket over the model's
// packed lowering: an instance of it on one IPU, or a sharded plan under
// the planner's strategy, whose pipeline stages and tensor-parallel
// windows run the lowering's own kernels and packs. A sharded plan's
// goroutines carry the model's pprof label and an ipu=<k> label each.
func (p *Program) newPlan() (Executor, error) {
	m := p.m
	low := m.packed()
	if m.shards <= 1 {
		return low.Instance(p.batch)
	}
	sc, err := p.shardEstimate()
	if err != nil {
		return nil, err
	}
	sp, err := shard.CompileMicro(low, p.batch, m.topo, m.shards, sc.Strategy, sc.MicroBatches)
	if err != nil {
		return nil, err
	}
	sp.SetPprofLabels(m.pprofCtx)
	return sp, nil
}

// PutPlan returns a plan obtained from GetPlan to the free list, or
// closes it when the model has stopped.
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

// workloadBuilder produces the IPU workload whose compiled program prices
// a model at one batch size. The registry installs a layout-aware builder
// for compressed models; spec-built models go through buildWorkload.
type workloadBuilder func(cfg ipu.Config, batch int) (*ipu.Workload, error)

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
