package shard

import (
	"fmt"
	"slices"

	"repro/internal/ipu"
	"repro/internal/nn"
)

// memOverhead scales raw data bytes to modelled resident bytes, standing
// in for the compiler-generated vertex/edge/exchange/control code the
// single-chip model prices in detail (Observation 3). Calibration value.
const memOverhead = 1.15

// Cost is the modelled price of executing one batch of a sharded plan on
// the topology: what each IPU must hold, and what the IPU-Link fabric
// moves. Host execution is the numerics oracle; this struct is the
// device-model verdict the serving registry budgets against.
type Cost struct {
	Shards   int      `json:"shards"`
	Strategy Strategy `json:"-"`
	Batch    int      `json:"batch"`

	// Per-IPU residency (max over shards).
	PerIPUWeightBytes     int `json:"per_ipu_weight_bytes"`
	PerIPUActivationBytes int `json:"per_ipu_activation_bytes"`
	PerIPUBytes           int `json:"per_ipu_bytes"` // overhead-scaled total

	// IPU-Link traffic of one batch (bytes sent per IPU) and its time.
	ExchangeBytesPerBatch   int     `json:"exchange_bytes"`
	ExchangeSecondsPerBatch float64 `json:"exchange_s"`

	// Modelled compute and end-to-end batch latency.
	ComputeSecondsPerBatch float64 `json:"compute_s"`
	LatencySecondsPerBatch float64 `json:"latency_s"`

	// MicroBatches is the wavefront width the latency is priced at: how
	// many micro-batches a full batch splits into under pipeline
	// partitioning (1 = one micro-batch, the stages in series; 0 under
	// tensor parallelism, which has no fill/drain to amortize).
	MicroBatches int `json:"micro_batches,omitempty"`
	// PipelineStages is the effective pipeline depth after clamping the
	// requested shard count to the plan's step count — a stage cannot own
	// less than one step, so shards beyond NumSteps would idle for the
	// whole batch. 0 under tensor parallelism.
	PipelineStages int `json:"pipeline_stages,omitempty"`
}

// StrategyName is the JSON-friendly strategy label.
func (c Cost) StrategyName() string { return c.Strategy.String() }

// Splittable reports whether the lowering splits tensor-parallel at the
// given shard count, and if not, why: every step must have a window form
// (nn.Window) and at least one column per shard. A shard whose window
// rounds to nothing idles for the step, and the pricing counts it so.
func Splittable(low *nn.Lowering, shards int) error {
	if shards == 1 {
		return nil // a 1-shard split is the identity lowering
	}
	for i := 0; i < low.NumSteps(); i++ {
		info := low.Step(i)
		switch {
		case len(low.StepWindow(i).Passes) == 0:
			return fmt.Errorf("shard: step %d (%s): no column-window form", i, info.Name)
		case info.Cols < shards:
			return fmt.Errorf("shard: step %d (%s): width %d < %d shards", i, info.Name, info.Cols, shards)
		}
	}
	return nil
}

// stepPrice is one lowered step's modelled price under a strategy: the
// seconds of its slowest shard's compute, and the IPU-Link bytes and
// seconds of what follows it — the all-gather of its windows plus one
// pairwise round per exchanging pass under tensor parallelism, the hop to
// the next stage under pipeline when the step ends its stage (at one
// micro-batch).
type stepPrice struct {
	stage     int // owning pipeline stage; 0 under tensor parallelism
	compute   float64
	exBytes   int
	exSeconds float64
}

// priceSteps is the one per-step price estimateMicro, modelledMicroPhases
// and PlanStepSeconds read, and it reads only what the lowering declares;
// it also returns the weight bytes each IPU holds. Under tensor
// parallelism on more than one shard, shard k runs window
// [pts[k], pts[k+1]) of every step, the splitPoints splitStep runs: a
// window of c of a step's cols columns holds its Window's shared bytes
// plus c/cols of the rest of the step's resident bytes, an empty window
// holds nothing, the step computes as long as its widest window, and its
// all-gather moves that window. Otherwise each step runs whole on its
// pipeline stage.
func priceSteps(low *nn.Lowering, batch, shards int, topo Topology, strategy Strategy) ([]stepPrice, []int) {
	n := low.NumSteps()
	prices := make([]stepPrice, n)
	ipuBytes := make([]int, shards)
	tp := strategy == TensorParallel && shards > 1
	var owners []int
	if !tp {
		owners = pipelineOwners(stepBytes(low), shards)
	}
	for i := range prices {
		info := low.Step(i)
		flops := float64(batch) * float64(low.StepFlopsPerRow(i))
		rate := classRate(topo, stepClass(info.Layer))
		p := &prices[i]
		if !tp {
			p.stage = owners[i]
			ipuBytes[p.stage] += info.Bytes
			p.compute = flops / rate
			if i+1 < n && owners[i+1] != p.stage {
				// Activations cross one IPU-Link at the stage boundary.
				p.exBytes = 4 * batch * info.Cols
				p.exSeconds = topo.Link.PointToPointSeconds(p.exBytes)
			}
			continue
		}
		win := low.StepWindow(i)
		pts := splitPoints(info.Cols, shards, win.Align)
		widest := 0
		for k := 0; k < shards; k++ {
			if c := pts[k+1] - pts[k]; c > 0 {
				ipuBytes[k] += (info.Bytes-win.SharedBytes)*c/info.Cols + win.SharedBytes
				widest = max(widest, c)
			}
		}
		shared := float64(batch) * float64(win.SharedFlopsPerRow)
		p.compute = ((flops-shared)*float64(widest)/float64(info.Cols) + shared) / rate
		rounds := 0
		for _, pass := range win.Passes {
			if exchanges(pass, info.Cols, shards) {
				rounds++
			}
		}
		slice := 4 * batch * widest
		p.exBytes = topo.Link.AllGatherBytes(shards, slice) + rounds*slice
		p.exSeconds = topo.Link.AllGatherSeconds(shards, slice) + float64(rounds)*topo.Link.PairwiseExchangeSeconds(slice)
	}
	return prices, ipuBytes
}

// stepBytes lists each lowered step's resident bytes, the quantity that
// overflows tile SRAM.
func stepBytes(low *nn.Lowering) []int {
	bytes := make([]int, low.NumSteps())
	for i := range bytes {
		bytes[i] = low.Step(i).Bytes
	}
	return bytes
}

// stepClass is the IPU compute class a step's layer kind runs on: the
// dense family on the AMP units, structured transforms and activations
// on the SIMD lanes.
func stepClass(l nn.Layer) ipu.ComputeClass {
	switch l.(type) {
	case *nn.Dense, *nn.FactorizedDense:
		return ipu.ClassAMP
	case *nn.StructuredLinear, *nn.ReLU:
		return ipu.ClassSIMD
	default:
		return ipu.ClassScalar
	}
}

// maxAutoMicro caps the planner-chosen wavefront width. The bubble
// fraction (S−1)/(S−1+M) has diminishing returns in M while the
// per-message IPU-Link overhead (sync + latency) is paid once per
// micro-batch per boundary, so small widths capture nearly all of the
// win: at S=2, M=4 already cuts the bubble from 0.5 to 0.2.
const maxAutoMicro = 4

// EstimateBudget prices the lowered model and picks the strategy
// fitting-then-fastest: among the candidates whose per-IPU footprint fits
// budgetBytes (0 = the chip's SRAM), the lower modelled latency wins; if
// neither fits, the more memory-frugal one does. Pipeline usually wins on
// latency at SHL scale — the all-gathers cost more than the compute a
// split saves — but pipeline can never split a single layer, so once one
// weight matrix outgrows the budget (the paper's memory wall), only
// tensor-parallel still fits and the planner switches. Unsplittable
// layers (fastfood, circulant) force pipeline.
func EstimateBudget(low *nn.Lowering, batch, shards int, topo Topology, budgetBytes int) (Cost, error) {
	return estimateBudgetMicro(low, batch, shards, topo, budgetBytes, 0)
}

// estimateBudgetMicro is EstimateBudget with the pipeline wavefront
// width pinned: micro 0 lets the planner pick the width minimizing
// modelled latency (up to maxAutoMicro), micro 1 prices the stages in
// series, micro > 1 forces that width. Tensor-parallel pricing
// ignores micro — it has no pipeline bubble to amortize.
func estimateBudgetMicro(low *nn.Lowering, batch, shards int, topo Topology, budgetBytes, micro int) (Cost, error) {
	topo = topo.withDefaults()
	if budgetBytes <= 0 {
		budgetBytes = topo.IPU.TotalMemBytes()
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return Cost{}, fmt.Errorf("shard: shard count %d must be a positive power of two", shards)
	}
	if shards > topo.NumIPUs {
		return Cost{}, fmt.Errorf("shard: %d shards exceed topology of %d IPUs", shards, topo.NumIPUs)
	}
	pipe, err := estimateMicro(low, batch, shards, topo, Pipeline, micro)
	if err != nil {
		return Cost{}, err
	}
	if shards == 1 || Splittable(low, shards) != nil {
		return pipe, nil
	}
	tp, err := estimateWith(low, batch, shards, topo, TensorParallel)
	if err != nil {
		return Cost{}, err
	}
	tpFits, pipeFits := tp.PerIPUBytes <= budgetBytes, pipe.PerIPUBytes <= budgetBytes
	switch {
	case tpFits && !pipeFits:
		return tp, nil
	case pipeFits && !tpFits:
		return pipe, nil
	case tpFits && pipeFits:
		if tp.LatencySecondsPerBatch <= pipe.LatencySecondsPerBatch {
			return tp, nil
		}
		return pipe, nil
	default:
		if tp.PerIPUBytes <= pipe.PerIPUBytes {
			return tp, nil
		}
		return pipe, nil
	}
}

// estimateWith prices one specific strategy at the classic barrier-loop
// schedule (one micro-batch).
func estimateWith(low *nn.Lowering, batch, shards int, topo Topology, strategy Strategy) (Cost, error) {
	return estimateMicro(low, batch, shards, topo, strategy, 1)
}

// estimateMicro prices one specific strategy at a pipeline wavefront
// width (micro 0 = planner-chosen, see estimateBudgetMicro), summing
// priceSteps step by step.
func estimateMicro(low *nn.Lowering, batch, shards int, topo Topology, strategy Strategy, micro int) (Cost, error) {
	topo = topo.withDefaults()
	c := Cost{Shards: shards, Strategy: strategy, Batch: batch}

	// Both strategies keep the full-width ping-pong arenas resident (the
	// gathered activations under TP, the streamed batch under pipeline)
	// plus one arena's worth of per-step scratch.
	maxW := low.InputWidth()
	for i := 0; i < low.NumSteps(); i++ {
		maxW = max(maxW, low.StepCols(i))
	}
	c.PerIPUActivationBytes = 3 * 4 * batch * maxW

	switch strategy {
	case TensorParallel:
		if err := Splittable(low, shards); err != nil {
			return Cost{}, err
		}
		prices, ipuBytes := priceSteps(low, batch, shards, topo, strategy)
		c.PerIPUWeightBytes = slices.Max(ipuBytes)
		for _, p := range prices {
			c.ComputeSecondsPerBatch += p.compute
			c.ExchangeBytesPerBatch += p.exBytes
			c.ExchangeSecondsPerBatch += p.exSeconds
		}
	case Pipeline:
		// Effective stages: pipelineOwners never assigns a stage past the
		// lowering's step count, so shards beyond it would own nothing — the
		// executor clamps to the same count and the pricing must agree.
		stages := min(shards, low.NumSteps())
		prices, ipuBytes := priceSteps(low, batch, stages, topo, strategy)
		c.PerIPUWeightBytes = slices.Max(ipuBytes)
		stageComp := make([]float64, stages)
		var boundaryBytes []int
		for _, p := range prices {
			c.ComputeSecondsPerBatch += p.compute
			stageComp[p.stage] += p.compute
			if p.exBytes > 0 {
				boundaryBytes = append(boundaryBytes, p.exBytes)
			}
		}
		c.PipelineStages = stages
		c.MicroBatches = pickMicro(stageComp, boundaryBytes, batch, topo, micro)
		c.ExchangeBytesPerBatch, c.ExchangeSecondsPerBatch,
			c.LatencySecondsPerBatch = pipelineSchedule(stageComp, boundaryBytes, topo, c.MicroBatches)
	default:
		return Cost{}, fmt.Errorf("shard: unknown strategy %v", strategy)
	}

	c.PerIPUBytes = int(memOverhead * float64(c.PerIPUWeightBytes+c.PerIPUActivationBytes))
	if c.LatencySecondsPerBatch == 0 {
		c.LatencySecondsPerBatch = c.ComputeSecondsPerBatch + c.ExchangeSecondsPerBatch
	}
	return c, nil
}

// pipelineSchedule prices one batch of a pipeline at wavefront width m:
// the exchange bytes/seconds the IPU-Link fabric moves and the modelled
// end-to-end latency. At m == 1 this is the classic serial schedule —
// every stage and every boundary hop in sequence. At m > 1 the batch
// streams as m micro-batches: the steady-state tick is the slowest
// stage's per-micro-batch compute or the slowest boundary's
// per-micro-batch wire time (exchange overlaps the other stages'
// compute, and only the stream head pays the fixed link overhead);
// on a balanced pipeline the schedule spans m+S−1 ticks, making
// fill/drain the (S−1)/(S−1+m) share the ROADMAP's overlap item names.
func pipelineSchedule(stageComp []float64, boundaryBytes []int, topo Topology, m int) (exBytes int, exSec, latency float64) {
	for _, b := range boundaryBytes {
		exBytes += b
	}
	if m <= 1 {
		var comp float64
		for _, s := range stageComp {
			comp += s
		}
		for _, b := range boundaryBytes {
			exSec += topo.Link.PointToPointSeconds(b)
		}
		return exBytes, exSec, comp + exSec
	}
	// Linear-pipeline makespan: the first micro-batch traverses every
	// stage and boundary hop once (sum of per-micro-batch service times),
	// and each of the remaining m−1 micro-batches adds one tick of the
	// bottleneck resource. Exact for unbalanced stages too — the naive
	// (m+S−1)×tick form overprices skewed pipelines and would make the
	// planner wrongly prefer one micro-batch.
	//
	// Boundary messages stream: the m micro-batch transfers on one
	// boundary are back-to-back messages on the same link, so the fixed
	// sync+latency is paid once by the stream head and each subsequent
	// message lands one wire-time later (LinkConfig.WireSeconds). Charging
	// the fixed overhead m times would make modelled latency grow
	// monotonically with m on latency-dominated fabrics and the planner
	// would never leave one micro-batch.
	var chain, tick float64
	for _, s := range stageComp {
		u := s / float64(m)
		chain += u
		if u > tick {
			tick = u
		}
	}
	for _, b := range boundaryBytes {
		per := (b + m - 1) / m
		head := topo.Link.PointToPointSeconds(per)
		wire := topo.Link.WireSeconds(per)
		chain += head
		exSec += head + float64(m-1)*wire
		if wire > tick {
			tick = wire
		}
	}
	latency = chain + float64(m-1)*tick
	return exBytes, exSec, latency
}

// pickMicro resolves the wavefront width: a forced micro is clamped to
// the batch (a 3-row batch cannot split 4 ways); micro 0 scans the
// power-of-two widths up to maxAutoMicro for the lowest modelled
// latency. Single-stage pipelines have no bubble and always run at 1.
func pickMicro(stageComp []float64, boundaryBytes []int, batch int, topo Topology, micro int) int {
	if len(stageComp) <= 1 {
		return 1
	}
	if micro > 0 {
		if micro > batch {
			micro = batch
		}
		if micro < 1 {
			micro = 1
		}
		return micro
	}
	best, bestLat := 1, -1.0
	for m := 1; m <= maxAutoMicro && m <= batch; m *= 2 {
		_, _, lat := pipelineSchedule(stageComp, boundaryBytes, topo, m)
		if bestLat < 0 || lat < bestLat {
			best, bestLat = m, lat
		}
	}
	return best
}

// classRate is the topology's modelled aggregate flop rate for one
// compute class: tiles × per-tile flops/cycle × clock.
func classRate(topo Topology, cl ipu.ComputeClass) float64 {
	return float64(topo.IPU.Tiles) * topo.IPU.ClassRate(cl) * topo.IPU.ClockHz
}

// PlanStepSeconds returns the modelled single-IPU duration of each lowered
// step of one unsharded batch (index-aligned with low.Steps): priceSteps'
// compute on one shard, without exchange. This is the analytic baseline
// the serving layer's cost-model drift detector lines the plan's measured
// step times (Frame().StepNanos) up against.
func PlanStepSeconds(low *nn.Lowering, batch int, topo Topology) []float64 {
	prices, _ := priceSteps(low, batch, 1, topo.withDefaults(), Pipeline)
	out := make([]float64, len(prices))
	for i, p := range prices {
		out[i] = p.compute
	}
	return out
}

// modelledMicroPhases prices each lowered micro-step, split by BSP
// phase, from priceSteps under the strategy: the source plan step's
// compute (its slowest window's under tensor parallelism, whole under
// pipeline) spread evenly over its micro-steps, and the step's exchange
// time (all-gather and butterfly pairwise rounds, or the pipeline
// boundary hop) charged to the step's last micro-step — the barrier
// where the host actually waits for it. The timeline recorder consumes
// the split; ModelledStepSeconds exposes the sum.
func modelledMicroPhases(low *nn.Lowering, steps []step, batch, shards int, topo Topology, strategy Strategy) (computeSec, exchangeSec []float64) {
	prices, _ := priceSteps(low, batch, shards, topo.withDefaults(), strategy)
	counts := make([]int, len(prices))
	last := make([]int, len(prices))
	for mi := range steps {
		s := steps[mi].src
		counts[s]++
		last[s] = mi
	}
	computeSec = make([]float64, len(steps))
	exchangeSec = make([]float64, len(steps))
	for mi := range steps {
		s := steps[mi].src
		computeSec[mi] = prices[s].compute / float64(counts[s])
		if mi == last[s] {
			exchangeSec[mi] = prices[s].exSeconds
		}
	}
	return computeSec, exchangeSec
}

// SpecLayer describes one layer of an unbuilt model for spec-level
// sizing: the shard-count sweep of the memory-wall experiment prices
// widths no host could materialize, so it cannot go through a compiled
// plan.
type SpecLayer struct {
	OutW            int
	WeightBytes     int // parameter bytes that divide across shards
	ReplicatedBytes int // bytes every shard holds regardless of count
	Splittable      bool
}

// EstimateSpecBytes prices the per-IPU residency of a model described
// only by per-layer byte counts, under the same arena and overhead model
// as EstimateBudget: splittable layers divide S ways (tensor parallel);
// if any layer is unsplittable the model pipelines, and the weight
// residency is the heaviest contiguous stage — never less than the
// largest single layer, which is exactly why a lone N² dense weight walls
// a pipeline but not a tensor-parallel split.
func EstimateSpecBytes(layers []SpecLayer, batch, shards int, topo Topology) int {
	topo = topo.withDefaults()
	if shards < 1 {
		shards = 1
	}
	maxW := 0
	splittable := true
	for _, l := range layers {
		if l.OutW > maxW {
			maxW = l.OutW
		}
		if !l.Splittable {
			splittable = false
		}
	}
	weights := 0
	if splittable || shards == 1 {
		for _, l := range layers {
			weights += l.WeightBytes/shards + l.ReplicatedBytes
		}
	} else {
		// Contiguous stages, packed as the executor packs a lowering's.
		bytes := make([]int, len(layers))
		for i, l := range layers {
			bytes[i] = l.WeightBytes + l.ReplicatedBytes
		}
		stages := make([]int, shards)
		for i, o := range pipelineOwners(bytes, shards) {
			stages[o] += bytes[i]
		}
		weights = slices.Max(stages)
	}
	acts := 3 * 4 * batch * maxW
	return int(memOverhead * float64(weights+acts))
}

// FitShards returns the smallest power-of-two shard count (≤ the
// topology) whose per-IPU footprint fits budgetBytes, with its cost. When
// even the full topology does not fit, it returns the largest available
// count and fits == false — callers may still serve, oversubscribed, or
// refuse.
func FitShards(low *nn.Lowering, batch int, topo Topology, budgetBytes int) (cost Cost, fits bool, err error) {
	topo = topo.withDefaults()
	if budgetBytes <= 0 {
		budgetBytes = topo.IPU.TotalMemBytes()
	}
	best := Cost{}
	for s := 1; s <= topo.NumIPUs; s <<= 1 {
		c, err := EstimateBudget(low, batch, s, topo, budgetBytes)
		if err != nil {
			return Cost{}, false, err
		}
		best = c
		if c.PerIPUBytes <= budgetBytes {
			return c, true, nil
		}
	}
	return best, false, nil
}
