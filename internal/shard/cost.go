package shard

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/butterfly"
	"repro/internal/fft"
	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/pixelfly"
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

// stepDesc is the cost-relevant description of one plan step.
type stepDesc struct {
	outW        int
	weightBytes int     // parameter bytes that split 1/S under tensor parallelism
	replBytes   int     // bytes every shard holds regardless of count
	flops       float64 // total forward flops of the layer
	replFlops   float64 // flops every shard repeats (rank bottlenecks x·A, x·V)
	class       ipu.ComputeClass
	globalFn    func(shards int) int // butterfly: exchange rounds inside the layer
	splitErr    func(shards int) error
}

// describeStep prices one layer for the planner. Splittability defers to
// canSplit so the estimate can never disagree with the lowering.
func describeStep(l nn.Layer, outW, batch int) stepDesc {
	d := stepDesc{
		outW:     outW,
		splitErr: func(shards int) error { return canSplit(l, outW, shards) },
	}
	switch t := l.(type) {
	case *nn.Dense:
		d.weightBytes = 4 * t.ParamCount()
		d.flops = t.Flops(batch)
		d.class = ipu.ClassAMP
	case *nn.ReLU:
		d.flops = float64(batch * outW)
		d.class = ipu.ClassSIMD
	case *nn.FactorizedDense:
		d.weightBytes = 4 * (t.Rank*t.Out + t.Out)
		d.replBytes = 4 * t.Rank * t.In // A is replicated
		d.flops = t.Flops(batch)
		d.replFlops = 2 * float64(batch) * float64(t.In) * float64(t.Rank) // x·A on every shard
		d.class = ipu.ClassAMP
	case *nn.StructuredLinear:
		d.flops = t.Flops(batch)
		d.class = ipu.ClassSIMD
		switch tr := t.T.(type) {
		case *butterfly.Butterfly:
			d.weightBytes = 4 * (tr.ParamCount() + t.N)
			if tr.Perm != nil {
				d.replBytes = 8 * tr.N // the permutation table rides along
			}
			d.globalFn = func(shards int) int {
				if shards <= 1 {
					return 0
				}
				return fft.Log2(shards) // stages with stride ≥ N/S
			}
		case *baselines.LowRank:
			d.weightBytes = 4 * (tr.N*tr.Rank + t.N)                            // U slice + bias
			d.replBytes = 4 * tr.N * tr.Rank                                    // V is replicated
			d.replFlops = 2 * float64(batch) * float64(tr.N) * float64(tr.Rank) // x·V on every shard
		case *pixelfly.Pixelfly:
			d.weightBytes = 4 * (tr.ParamCount() - tr.Cfg.N*tr.Cfg.LowRank + t.N)
			d.replBytes = 4 * tr.Cfg.N * tr.Cfg.LowRank                                    // V is replicated
			d.replFlops = 2 * float64(batch) * float64(tr.Cfg.N) * float64(tr.Cfg.LowRank) // x·V
		default:
			// Unsplittable structured layer (fastfood, circulant): all of
			// it lives wherever its pipeline stage lands.
			d.weightBytes = 4 * t.ParamCount()
		}
	default:
		d.weightBytes = 4 * l.ParamCount()
		d.class = ipu.ClassScalar
	}
	return d
}

// describePlan walks the lowering once. A fused step is priced as its linear
// layer plus the folded activation's elementwise pass — the activation's
// work doesn't disappear under fusion, but its arena resweep, barrier and
// per-step all-gather do (one desc instead of two is exactly that saving).
func describePlan(low *nn.Lowering, batch int) (descs []stepDesc, maxW int) {
	maxW = low.InputWidth()
	for i := 0; i < low.NumSteps(); i++ {
		info := low.Step(i)
		outW := info.Cols
		if outW > maxW {
			maxW = outW
		}
		d := describeStep(info.Layer, outW, batch)
		if info.Fused() {
			d.flops += float64(batch * outW)
		}
		descs = append(descs, d)
	}
	return descs, maxW
}

// canSplit reports whether a layer admits a tensor-parallel column split
// at the given shard count. The checks here are the single source of truth
// the cost planner and the split consult, so the estimate can never
// disagree with the lowering.
func canSplit(l nn.Layer, outW, shards int) error {
	if shards == 1 {
		return nil // a 1-shard "split" is the identity lowering
	}
	switch t := l.(type) {
	case *nn.Dense:
		if t.Out < shards {
			return fmt.Errorf("dense output width %d < %d shards", t.Out, shards)
		}
		return nil
	case *nn.ReLU:
		return nil
	case *nn.FactorizedDense:
		if t.Out < shards {
			return fmt.Errorf("factorized output width %d < %d shards", t.Out, shards)
		}
		return nil
	case *nn.StructuredLinear:
		switch tr := t.T.(type) {
		case *butterfly.Butterfly:
			if tr.N%shards != 0 {
				return fmt.Errorf("butterfly width %d not divisible by %d shards", tr.N, shards)
			}
			return nil
		case *baselines.LowRank:
			if tr.N < shards {
				return fmt.Errorf("low-rank width %d < %d shards", tr.N, shards)
			}
			return nil
		case *pixelfly.Pixelfly:
			if tr.Cfg.N%(shards*tr.Cfg.BlockSize) != 0 {
				return fmt.Errorf("pixelfly slice width %d not block-aligned (block %d)",
					tr.Cfg.N/shards, tr.Cfg.BlockSize)
			}
			return nil
		default:
			// Fastfood and circulant mix every input feature into every
			// output (Hadamard sweeps / FFT), so a column slice of the
			// output still needs the full O(N log N) pass — no memory or
			// compute is saved by splitting them.
			return fmt.Errorf("transform %T is not column-splittable", t.T)
		}
	default:
		return fmt.Errorf("layer %T is not column-splittable", l)
	}
}

// Splittable reports whether every lowered step admits a tensor-parallel
// split at the given shard count, and if not, why.
func Splittable(low *nn.Lowering, shards int) error {
	for i := 0; i < low.NumSteps(); i++ {
		if err := canSplit(low.StepLayer(i), low.StepCols(i), shards); err != nil {
			return fmt.Errorf("shard: step %d (%s): %w", i, low.Steps()[i], err)
		}
	}
	return nil
}

// maxAutoMicro caps the planner-chosen wavefront width. The bubble
// fraction (S−1)/(S−1+M) has diminishing returns in M while the
// per-message IPU-Link overhead (sync + latency) is paid once per
// micro-batch per boundary, so small widths capture nearly all of the
// win: at S=2, M=4 already cuts the bubble from 0.5 to 0.2.
const maxAutoMicro = 4

// Estimate prices the lowered model at the given batch and shard count
// with the per-IPU budget defaulting to the full chip SRAM.
func Estimate(low *nn.Lowering, batch, shards int, topo Topology) (Cost, error) {
	return EstimateBudget(low, batch, shards, topo, 0)
}

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
// width (micro 0 = planner-chosen, see estimateBudgetMicro).
func estimateMicro(low *nn.Lowering, batch, shards int, topo Topology, strategy Strategy, micro int) (Cost, error) {
	topo = topo.withDefaults()
	descs, maxW := describePlan(low, batch)
	c := Cost{Shards: shards, Strategy: strategy, Batch: batch}

	// Both strategies keep the full-width ping-pong arenas resident (the
	// gathered activations under TP, the streamed batch under pipeline)
	// plus one arena's worth of per-step scratch.
	c.PerIPUActivationBytes = 3 * 4 * batch * maxW

	rate := func(cl ipu.ComputeClass) float64 { return classRate(topo, cl) }

	switch strategy {
	case TensorParallel:
		if shards > 1 {
			if err := Splittable(low, shards); err != nil {
				return Cost{}, err
			}
		}
		for _, d := range descs {
			c.PerIPUWeightBytes += d.weightBytes/shards + d.replBytes
			// The sliced work divides across shards; rank-bottleneck
			// products (x·A, x·V) are replicated and do not.
			split := (d.flops-d.replFlops)/float64(shards) + d.replFlops
			c.ComputeSecondsPerBatch += split / rate(d.class)
			if shards > 1 {
				// All-gather of the layer's output slices.
				slice := 4 * batch * d.outW / shards
				c.ExchangeBytesPerBatch += topo.Link.AllGatherBytes(shards, slice)
				c.ExchangeSecondsPerBatch += topo.Link.AllGatherSeconds(shards, slice)
				if d.globalFn != nil {
					// Butterfly global stages: one pairwise swap each.
					rounds := d.globalFn(shards)
					c.ExchangeBytesPerBatch += rounds * slice
					c.ExchangeSecondsPerBatch += float64(rounds) * topo.Link.PairwiseExchangeSeconds(slice)
				}
			}
		}
	case Pipeline:
		// Effective stages: pipelineOwners never assigns a stage past the
		// lowering's step count, so shards beyond it would own nothing — the
		// executor clamps to the same count and the pricing must agree.
		stages := shards
		if n := low.NumSteps(); stages > n {
			stages = n
		}
		owners := pipelineOwners(low, stages)
		stageBytes := make([]int, stages)
		stageComp := make([]float64, stages)
		var boundaryBytes []int
		for i, d := range descs {
			stageBytes[owners[i]] += d.weightBytes + d.replBytes
			sec := d.flops / rate(d.class)
			c.ComputeSecondsPerBatch += sec
			stageComp[owners[i]] += sec
			if i+1 < len(owners) && owners[i+1] != owners[i] {
				// Activations cross one IPU-Link at the stage boundary.
				boundaryBytes = append(boundaryBytes, 4*batch*d.outW)
			}
		}
		for _, b := range stageBytes {
			if b > c.PerIPUWeightBytes {
				c.PerIPUWeightBytes = b
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
// step of one unsharded batch (index-aligned with low.Steps) — the same
// per-class compute pricing estimateWith charges, without exchange. This
// is the analytic baseline the serving layer's cost-model drift detector
// lines the plan's measured step times (Frame().StepNanos) up against.
func PlanStepSeconds(low *nn.Lowering, batch int, topo Topology) []float64 {
	topo = topo.withDefaults()
	descs, _ := describePlan(low, batch)
	out := make([]float64, len(descs))
	for i, d := range descs {
		out[i] = d.flops / classRate(topo, d.class)
	}
	return out
}

// modelledMicroPhases prices each lowered micro-step, split by BSP
// phase: the source plan step's modelled compute under the strategy
// (split across shards for tensor parallel, whole for pipeline) spread
// evenly over its micro-steps, and the step's exchange time (all-gather
// / butterfly pairwise rounds / pipeline boundary hop) charged to the
// step's last micro-step — the barrier where the host actually waits
// for it. The timeline recorder consumes the split; ModelledStepSeconds
// exposes the sum.
func modelledMicroPhases(low *nn.Lowering, steps []step, batch, shards int, topo Topology, strategy Strategy) (computeSec, exchangeSec []float64) {
	topo = topo.withDefaults()
	descs, _ := describePlan(low, batch)
	n := len(descs)
	compute := make([]float64, n)
	exchange := make([]float64, n)
	switch strategy {
	case TensorParallel:
		if shards > 1 {
			for i, d := range descs {
				split := (d.flops-d.replFlops)/float64(shards) + d.replFlops
				compute[i] = split / classRate(topo, d.class)
				slice := 4 * batch * d.outW / shards
				exchange[i] = topo.Link.AllGatherSeconds(shards, slice)
				if d.globalFn != nil {
					exchange[i] += float64(d.globalFn(shards)) * topo.Link.PairwiseExchangeSeconds(slice)
				}
			}
			break
		}
		fallthrough
	case Pipeline:
		owners := pipelineOwners(low, shards)
		for i, d := range descs {
			compute[i] = d.flops / classRate(topo, d.class)
			if i+1 < len(owners) && owners[i+1] != owners[i] {
				exchange[i] = topo.Link.PointToPointSeconds(4 * batch * d.outW)
			}
		}
	}
	counts := make([]int, n)
	last := make([]int, n)
	for mi := range steps {
		s := steps[mi].src
		counts[s]++
		last[s] = mi
	}
	computeSec = make([]float64, len(steps))
	exchangeSec = make([]float64, len(steps))
	for mi := range steps {
		s := steps[mi].src
		computeSec[mi] = compute[s] / float64(counts[s])
		if mi == last[s] {
			exchangeSec[mi] = exchange[s]
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
		// Greedy contiguous stage packing, as pipelineOwners does.
		total := 0
		for _, l := range layers {
			total += l.WeightBytes + l.ReplicatedBytes
		}
		fair := (total + shards - 1) / shards
		stage, stagesUsed := 0, 1
		for _, l := range layers {
			b := l.WeightBytes + l.ReplicatedBytes
			if stage > 0 && stage+b > fair && stagesUsed < shards {
				stage = 0
				stagesUsed++
			}
			stage += b
			if stage > weights {
				weights = stage
			}
		}
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
