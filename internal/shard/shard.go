// Package shard partitions compiled inference plans (nn.Plan) across
// several modelled IPUs connected by IPU-Links — the production answer
// when a model, or the batch riding through it, no longer fits one chip's
// SRAM (the paper's binding constraint).
//
// Two partitioning strategies are implemented, chosen per plan by a
// cost-based planner over the ipu.LinkConfig exchange model:
//
//   - Tensor parallel: every layer is split into per-shard column
//     windows, rounded to the alignment the lowering declares (nn.Window)
//     — each IPU holds its window's columns of the weights, plus what
//     every window repeats, and produces its window of the layer's
//     output, followed by an all-gather so the next layer sees the full
//     activation. On the host every shard runs its window of the
//     lowering's own kernels over the one copy of the packed weights.
//     Butterfly chains split specially: the first log2(N/S) factor stages
//     are block-local to a shard's slice, and only the top log2(S)
//     "global" stages, the passes wider than a shard's window, need a
//     pairwise exchange round each — the property (Liu et al.,
//     arXiv:2002.03400) that makes structured layers cheap to shard.
//   - Pipeline: contiguous step ranges are assigned to consecutive IPUs
//     and activations stream across one link per boundary. This is the
//     fallback when a layer is not splittable (fastfood and circulant mix
//     all features through Hadamard/FFT passes whose per-output cone is the
//     whole input, and their weights are O(N) anyway).
//
// Host-side execution verifies the numerics: shards run on a
// goroutine-per-IPU pool over plan-owned per-shard workspaces, with the
// all-gather realized as writes into a shared full-width activation arena
// and a barrier per step. Every element is produced by the same float32
// expression as the unsharded plan, so ShardedPlan.Execute is bit-for-bit
// equal to nn.Plan.Execute at any shard count — while the per-IPU memory
// and the exchange traffic of a real multi-chip run are priced
// analytically by the Cost model, from what the lowering declares, on
// the windows the shards run. Neither the planner nor the split reads an
// operator's fields.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/tensor"
)

// Strategy selects how a plan is partitioned across IPUs.
type Strategy int

const (
	// TensorParallel splits every layer into per-shard column windows
	// with an all-gather between layers.
	TensorParallel Strategy = iota
	// Pipeline assigns contiguous step ranges to consecutive IPUs.
	Pipeline
)

func (s Strategy) String() string {
	switch s {
	case TensorParallel:
		return "tensor-parallel"
	case Pipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Topology describes the modelled multi-IPU system a plan is sharded onto.
type Topology struct {
	// NumIPUs is how many processors the topology offers (the shard-count
	// ceiling; the planner may use fewer).
	NumIPUs int
	// IPU is the per-processor model (memory, compute classes).
	IPU ipu.Config
	// Link is the inter-processor exchange model.
	Link ipu.LinkConfig
}

// DefaultTopology returns n GC200s on an IPU-Link fabric — the M2000 pod
// building block the paper's hardware belongs to.
func DefaultTopology(n int) Topology {
	return Topology{NumIPUs: n, IPU: ipu.GC200(), Link: ipu.IPULink()}
}

func (t Topology) withDefaults() Topology {
	if t.NumIPUs <= 0 {
		t.NumIPUs = 1
	}
	if t.IPU.Tiles == 0 {
		t.IPU = ipu.GC200()
	}
	if t.Link.LinkBandwidth == 0 {
		t.Link = ipu.IPULink()
	}
	return t
}

// step is one barrier-delimited micro-step of the sharded program: per
// shard, a kernel writing that shard's slice of the step output into the
// shared full-width activation arena. A nil kernel means the shard is idle
// this step (a pipeline stage it does not own, a tensor-parallel window
// that rounds to nothing). Layer lowering may emit several micro-steps per
// source layer — a butterfly emits one per pass of its window kernel,
// since the global stages must see the other shards' writes from the
// previous stage.
type step struct {
	name string
	cols int
	// src is the index of the plan step this micro-step was lowered from —
	// the join key back to the unsharded plan's per-step kernel family,
	// flop model and modelled cost (several micro-steps may share one src).
	src int
	// variant names the micro-kernel shape the micro-step's kernels
	// dispatched to at lowering time: the plan step's, but "reference"
	// for a butterfly window's stage sweeps, which keep the element-wise
	// window kernel ("" for non-kernel steps).
	variant string
	run     []func(dst, x *tensor.Matrix, ws *tensor.Workspace)
	// scratch[k] declares what shard k's kernel takes from its workspace
	// at a given row count; a nil slice or entry declares nothing.
	scratch []func(rows int) tensor.Scratch
}

// demand is shard k's declared workspace demand for the micro-step at
// rows rows.
func (st *step) demand(k, rows int) tensor.Scratch {
	if k < len(st.scratch) && st.scratch[k] != nil {
		return st.scratch[k](rows)
	}
	return tensor.Scratch{}
}

// ShardedPlan is a compiled multi-IPU inference program. Like nn.Plan it
// owns its activation buffers and must not be used from two goroutines at
// once. It also owns one worker goroutine per modelled IPU past the first,
// parked between batches, which only Close stops: every compiled
// ShardedPlan must be closed.
type ShardedPlan struct {
	strategy Strategy
	shards   int
	maxBatch int
	in, out  int
	steps    []step

	// low is the lowering the plan was compiled from; each micro-step's
	// kernel family is its source step's.
	low *nn.Lowering

	// Barrier-loop arenas (tensor-parallel plans only): the shared
	// full-width activation ping-pong every shard writes its slice into.
	bufA, bufB []float32
	actA, actB tensor.Matrix
	ws         []*tensor.Workspace

	// frame is the measurement of the most recent Execute: each shard
	// writes its own kernel cells (the barrier or the stage tokens order
	// the writes before the orchestrator returns), the orchestrator the
	// barrier loop's step spans and the batch wall. execStart, the clock
	// every cell offset is taken against, is published to the workers by
	// the first start-channel send.
	frame     *timeline.Frame
	execStart time.Time

	// Per-kernel accounting figures: flopsPerRow/bytesPerRow carry each
	// micro-step's per-sample work (the lowered step's figures divided
	// over its micro-steps). modelSec is the modelled per-micro-step
	// seconds of one MaxBatch execution (compute under the chosen
	// strategy, with the source step's exchange charged to its last
	// micro-step) — the analytic counterpart the drift detector lines
	// measured step times up against.
	flopsPerRow []int64
	bytesPerRow []int64
	modelSec    []float64

	// Modelled phase split of modelSec (compute + exchange == modelSec
	// per micro-step): the timeline derivation uses the exchange half to
	// decide whether a wait is priced IPU-Link traffic or pure barrier
	// skew, and the serving layer exports both as the modelled
	// counterpart of the measured phase spans.
	modelCompSec []float64
	modelExchSec []float64

	// pprof goroutine labels: pprofBase is the serving layer's labelled
	// context (model=...); pprofCtxs[k] adds ipu=k. Workers apply their
	// label lazily on wake (workerCtx[k] is each worker's privately-owned
	// last-applied marker); the orchestrator wears pprofCtxs[0] for the
	// span of Execute.
	pprofBase context.Context
	pprofCtxs []context.Context
	workerCtx []context.Context

	// Orchestration state: the orchestrator publishes curDst/curX/stepIdx,
	// wakes the workers through their start channels (the channel send is
	// the happens-before edge), runs shard 0 inline, and collects one done
	// token per worker as the barrier. Close closes quit, once, which
	// stops the parked workers.
	curDst, curX *tensor.Matrix
	stepIdx      int
	start        []chan struct{}
	done         chan struct{}
	quit         chan struct{}
	quitOnce     sync.Once

	// Wavefront state (every pipeline plan; nil stageFirst means the
	// tensor-parallel barrier loop runs). A batch splits into waveM =
	// min(micro, rows) contiguous row chunks streamed through the stages
	// GPipe-style: stage k runs micro-batch j while stage k+1 runs j−1.
	// Each stage owns a contiguous micro-step range, private ping-pong
	// scratch for intra-stage activations, and a handoff arena per
	// boundary (double-buffered when micro > 1); ready/free token
	// channels replace the global barrier with stage-local handoffs.
	micro      int             // planned wavefront width
	waveM      int             // effective width of the current batch
	rowPts     []int           // micro+1 row boundaries of the current batch
	stageFirst []int           // per stage: first owned micro-step
	stageLast  []int           // per stage: last owned micro-step
	scratch    [][2][]float32  // per stage: intra-stage ping-pong arenas
	hand       [][2][]float32  // per boundary: handoff slots
	ready      []chan struct{} // per boundary: micro-batch produced
	free       []chan struct{} // per boundary: handoff slot free (primed per slot)
	outBuf     []float32       // final stage's full-batch output arena
	wfOut      tensor.Matrix   // returned header over outBuf
	wfDst      []tensor.Matrix // per stage: reusable kernel dst header
	wfSrc      []tensor.Matrix // per stage: reusable kernel src header
}

// CompileMicro partitions a packed lowering across shards IPUs of the
// topology for batches of up to maxBatch rows, under the strategy the
// caller (the serving layer, from the planner's Cost) names, at a
// pipeline wavefront width: micro 0 lets the cost model pick, micro ≥ 1
// streams each batch as that many micro-batches (clamped to maxBatch).
// shards must be a power of two within the topology.
// Both strategies run the kernels of a packed lowering and pack nothing:
// pipeline plans run each step's full-width kernel on its stage, through
// the wavefront; tensor-parallel plans run each shard's window of the
// steps' window kernels, over the same packs, through the barrier loop,
// and ignore micro. So every plan of a lowering holds one copy of its
// weights between them. Every buffer, the per-shard workspaces included,
// is sized from what the lowering declares, so compiling runs no kernel
// and the first Execute allocates nothing. Execute stays bit-for-bit
// identical to nn.Plan.Execute at every width — micro-batches are
// contiguous row slices and every kernel is row-wise.
func CompileMicro(low *nn.Lowering, maxBatch int, topo Topology, shards int, strategy Strategy, micro int) (*ShardedPlan, error) {
	if !low.Packed() {
		return nil, errors.New("shard: a sharded plan runs the lowering's kernels, so it needs a packed lowering (nn.Lowering.Pack)")
	}
	topo = topo.withDefaults()
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("shard: shard count %d must be a positive power of two", shards)
	}
	if shards > topo.NumIPUs {
		return nil, fmt.Errorf("shard: %d shards exceed topology of %d IPUs", shards, topo.NumIPUs)
	}
	// Effective executor width: a pipeline stage must own at least one
	// step, so shard counts past the lowering's step count clamp —
	// trailing IPUs would otherwise idle every step, skewing the per-IPU
	// phase accounting and the bubble gauge (the cost model clamps
	// identically and surfaces the depth as Cost.PipelineStages).
	eff := shards
	if strategy == Pipeline {
		if n := low.NumSteps(); eff > n {
			eff = n
		}
	}
	var steps []step
	switch strategy {
	case TensorParallel:
		var err error
		if steps, err = lowerTensorParallel(low, shards); err != nil {
			return nil, err
		}
	case Pipeline:
		steps = lowerPipeline(low, eff)
	default:
		return nil, fmt.Errorf("shard: unknown strategy %v", strategy)
	}
	cost, err := estimateMicro(low, maxBatch, shards, topo, strategy, micro)
	if err != nil {
		return nil, err
	}

	p := &ShardedPlan{
		strategy: strategy,
		shards:   eff,
		maxBatch: maxBatch,
		in:       low.InputWidth(),
		out:      low.OutputWidth(),
		steps:    steps,
		low:      low,
		micro:    cost.MicroBatches,
		done:     make(chan struct{}, eff),
		quit:     make(chan struct{}),
	}
	// The rows a kernel runs at: the whole batch under the barrier loop,
	// the largest micro-batch under the wavefront.
	rows := maxBatch
	if strategy == Pipeline {
		p.buildWavefront()
		rows = (maxBatch + p.micro - 1) / p.micro
	} else {
		maxW := 0
		for _, st := range steps {
			if st.cols > maxW {
				maxW = st.cols
			}
		}
		p.bufA = make([]float32, p.maxBatch*maxW)
		p.bufB = make([]float32, p.maxBatch*maxW)
		p.frame = timeline.NewFrame(len(steps), eff, 1, nil, true)
	}

	// Annotate each micro-step with its share of the source step's
	// per-row accounting figures: a source step lowered into M
	// micro-steps (a butterfly's per-stage sweeps) spreads its per-row
	// flops/bytes and modelled compute evenly over the M, so the totals
	// match the lowering's own accounting exactly.
	counts := make([]int, low.NumSteps())
	for i := range steps {
		counts[steps[i].src]++
	}
	p.flopsPerRow = make([]int64, len(steps))
	p.bytesPerRow = make([]int64, len(steps))
	for i := range steps {
		src := steps[i].src
		n := int64(counts[src])
		p.flopsPerRow[i] = low.StepFlopsPerRow(src) / n
		p.bytesPerRow[i] = low.StepArenaBytesPerRow(src) / n
	}
	p.modelCompSec, p.modelExchSec = modelledMicroPhases(low, steps, maxBatch, eff, topo, strategy)
	p.modelSec = make([]float64, len(steps))
	for i := range p.modelSec {
		p.modelSec[i] = p.modelCompSec[i] + p.modelExchSec[i]
	}
	p.workerCtx = make([]context.Context, eff)
	p.ws = make([]*tensor.Workspace, eff)
	for k := range p.ws {
		// Every micro-step resets the shard's workspace, so it holds the
		// largest demand among the shard's kernels.
		var d tensor.Scratch
		for i := range steps {
			d = d.Max(steps[i].demand(k, rows))
		}
		p.ws[k] = tensor.NewWorkspace(d)
	}
	for k := 1; k < eff; k++ {
		c := make(chan struct{}, 1)
		p.start = append(p.start, c)
		go p.workerLoop(k, c)
	}
	return p, nil
}

// buildWavefront sizes the wavefront executor's stage-local state: the
// owned micro-step range per stage, per-stage scratch and per-boundary
// handoff arenas (each sized for the largest micro-batch,
// ceil(maxBatch/micro) rows; one handoff slot at micro 1, two
// otherwise), the token channels, the full-batch output arena the final
// stage writes row slices into, and the frame. Everything is
// preallocated here so Execute stays allocation-free.
func (p *ShardedPlan) buildWavefront() {
	S := p.shards
	owner := make([]int, len(p.steps))
	p.stageFirst = make([]int, S)
	p.stageLast = make([]int, S)
	for s := range p.stageFirst {
		p.stageFirst[s] = -1
	}
	for i := range p.steps {
		for k, f := range p.steps[i].run {
			if f == nil {
				continue
			}
			owner[i] = k
			if p.stageFirst[k] < 0 {
				p.stageFirst[k] = i
			}
			p.stageLast[k] = i
		}
	}
	microCap := (p.maxBatch + p.micro - 1) / p.micro
	slots := min(p.micro, 2)
	p.rowPts = make([]int, p.micro+1)
	p.scratch = make([][2][]float32, S)
	p.hand = make([][2][]float32, S-1)
	p.ready = make([]chan struct{}, S-1)
	p.free = make([]chan struct{}, S-1)
	for s := 0; s < S; s++ {
		w := 0
		for i := p.stageFirst[s]; i < p.stageLast[s]; i++ {
			if p.steps[i].cols > w {
				w = p.steps[i].cols
			}
		}
		if w > 0 {
			p.scratch[s] = [2][]float32{
				make([]float32, microCap*w),
				make([]float32, microCap*w),
			}
		}
		if s < S-1 {
			bw := p.steps[p.stageLast[s]].cols
			p.ready[s] = make(chan struct{}, p.micro)
			p.free[s] = make(chan struct{}, slots)
			for h := 0; h < slots; h++ {
				p.hand[s][h] = make([]float32, microCap*bw)
				p.free[s] <- struct{}{}
			}
		}
	}
	p.outBuf = make([]float32, p.maxBatch*p.out)
	p.wfDst = make([]tensor.Matrix, S)
	p.wfSrc = make([]tensor.Matrix, S)
	p.frame = timeline.NewFrame(len(p.steps), S, p.micro, owner, false)
}

// Shards returns the number of modelled IPUs the plan runs on — for
// pipeline plans, the effective stage count after clamping to the
// plan's step count.
func (p *ShardedPlan) Shards() int { return p.shards }

// MicroBatches returns the wavefront width a pipeline plan executes full
// batches at (0 for tensor-parallel plans, which run the barrier loop).
func (p *ShardedPlan) MicroBatches() int { return p.micro }

// Lowering returns the packed lowering the plan was compiled from, whose
// kernels and packs it runs.
func (p *ShardedPlan) Lowering() *nn.Lowering { return p.low }

// Strategy returns the partitioning the planner (or caller) chose.
func (p *ShardedPlan) Strategy() Strategy { return p.strategy }

// MaxBatch returns the largest row count Execute accepts.
func (p *ShardedPlan) MaxBatch() int { return p.maxBatch }

// Steps returns the micro-step names in execution order.
func (p *ShardedPlan) Steps() []string {
	names := make([]string, len(p.steps))
	for i := range p.steps {
		names[i] = p.steps[i].name
	}
	return names
}

// StepKernel returns the Into-kernel family micro-step i executes — the
// attribution key of the per-kernel accounting, inherited from the
// source plan step.
func (p *ShardedPlan) StepKernel(i int) obs.Kernel { return p.low.StepKernel(p.steps[i].src) }

// StepVariant returns the micro-kernel variant name of micro-step i.
func (p *ShardedPlan) StepVariant(i int) string { return p.steps[i].variant }

// StepFlopsPerRow returns the modelled per-sample flop count of
// micro-step i: its source plan step's figure divided over the
// micro-steps that step lowered into.
func (p *ShardedPlan) StepFlopsPerRow(i int) int64 { return p.flopsPerRow[i] }

// StepArenaBytesPerRow returns the modelled per-sample activation-arena
// traffic of micro-step i, divided like StepFlopsPerRow.
func (p *ShardedPlan) StepArenaBytesPerRow(i int) int64 { return p.bytesPerRow[i] }

// Execute runs the sharded program over x (rows in [1, MaxBatch], cols ==
// InputWidth): pipeline plans stream it through the wavefront, tensor-
// parallel plans dispatch each micro-step to the goroutine-per-IPU pool
// and barrier between steps. Either way the batch's measurement lands in
// Frame. The result aliases plan-owned memory, valid until the next
// Execute. Output is bit-for-bit identical to the unsharded
// nn.Plan.Execute (and hence to Sequential.Infer).
func (p *ShardedPlan) Execute(x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != p.in {
		return nil, fmt.Errorf("%w: got %d columns, plan expects %d", nn.ErrPlanWidth, x.Cols, p.in)
	}
	if x.Rows < 1 || x.Rows > p.maxBatch {
		return nil, fmt.Errorf("%w: got %d rows, plan accepts 1..%d", nn.ErrPlanBatch, x.Rows, p.maxBatch)
	}
	if p.stageFirst != nil {
		return p.executeWave(x), nil
	}
	f := p.frame
	f.Begin(x.Rows, 1)
	if p.pprofCtxs != nil {
		// Wear ipu=0 for the inline shard's spans; restored below.
		pprof.SetGoroutineLabels(p.pprofCtxs[0])
	}
	execStart := time.Now()
	p.execStart, f.Start = execStart, execStart
	cur := x
	useA := true
	for i := range p.steps {
		st := &p.steps[i]
		act, buf := &p.actB, p.bufB
		if useA {
			act, buf = &p.actA, p.bufA
		}
		act.Rows, act.Cols = x.Rows, st.cols
		act.Data = buf[:x.Rows*st.cols]
		p.curDst, p.curX, p.stepIdx = act, cur, i
		t0 := time.Now()
		for _, c := range p.start {
			c <- struct{}{}
		}
		p.runShard(0, st)
		for range p.start {
			<-p.done
		}
		f.Spans[i] = timeline.Cell{Start: t0.Sub(execStart).Nanoseconds(), Dur: time.Since(t0).Nanoseconds()}
		cur = act
		useA = !useA
	}
	f.Wall = time.Since(execStart).Nanoseconds()
	if p.pprofCtxs != nil {
		pprof.SetGoroutineLabels(p.pprofBase)
	}
	return cur, nil
}

// executeWave runs the multi-micro-batch wavefront schedule: the batch
// splits into waveM = min(micro, rows) contiguous row chunks, every
// stage (worker goroutine; stage 0 inline) streams all chunks through
// its owned step range, and stage-local ready/free tokens replace the
// global per-step barrier — stage k computes micro-batch j while stage
// k+1 computes j−1, so fill/drain shrinks from (S−1)/S of a stage's
// wall to (S−1)/(S−1+waveM).
func (p *ShardedPlan) executeWave(x *tensor.Matrix) *tensor.Matrix {
	waveM := min(p.micro, x.Rows)
	f := p.frame
	f.Begin(x.Rows, waveM)
	p.waveM = waveM
	for j := 0; j <= waveM; j++ {
		p.rowPts[j] = j * x.Rows / waveM
	}
	p.curX = x
	if p.pprofCtxs != nil {
		pprof.SetGoroutineLabels(p.pprofCtxs[0])
	}
	execStart := time.Now()
	p.execStart, f.Start = execStart, execStart
	// One wake per worker per batch (not per step): each stage drains
	// every micro-batch before sending its done token.
	for _, c := range p.start {
		c <- struct{}{}
	}
	p.runStage(0)
	for range p.start {
		<-p.done
	}
	f.Wall = time.Since(execStart).Nanoseconds()
	if p.pprofCtxs != nil {
		pprof.SetGoroutineLabels(p.pprofBase)
	}
	p.wfOut.Rows, p.wfOut.Cols = x.Rows, p.out
	p.wfOut.Data = p.outBuf[:x.Rows*p.out]
	return &p.wfOut
}

// runStage streams every micro-batch of the current wavefront batch
// through stage k's owned micro-steps. Called by worker k (stage 0 by
// the orchestrator inline). All state it touches is stage-owned or
// ordered by the token channels.
func (p *ShardedPlan) runStage(k int) {
	first, last := p.stageFirst[k], p.stageLast[k]
	f := p.frame
	w := p.ws[k]
	x := p.curX
	S := p.shards
	inW := p.in
	if k > 0 {
		inW = p.steps[p.stageLast[k-1]].cols
	}
	for j := 0; j < p.waveM; j++ {
		lo, hi := p.rowPts[j], p.rowPts[j+1]
		nr := hi - lo
		// Acquire the input (upstream ready token) and the output slot
		// (downstream free token).
		if k > 0 {
			<-p.ready[k-1]
		}
		if k < S-1 {
			<-p.free[k]
		}
		src, dst := &p.wfSrc[k], &p.wfDst[k]
		if k == 0 {
			src.Rows, src.Cols = nr, inW
			src.Data = x.Data[lo*inW : hi*inW]
		} else {
			src.Rows, src.Cols = nr, inW
			src.Data = p.hand[k-1][j&1][:nr*inW]
		}
		par := 0
		for i := first; i <= last; i++ {
			st := &p.steps[i]
			var data []float32
			switch {
			case i == last && k == S-1:
				data = p.outBuf[lo*p.out : hi*p.out]
			case i == last:
				data = p.hand[k][j&1]
			default:
				data = p.scratch[k][par]
				par ^= 1
			}
			dst.Rows, dst.Cols = nr, st.cols
			dst.Data = data[:nr*st.cols]
			w.Reset()
			t0 := time.Now()
			st.run[k](dst, src, w)
			*f.Cell(i, j, k) = timeline.Cell{Start: t0.Sub(p.execStart).Nanoseconds(), Dur: time.Since(t0).Nanoseconds()}
			if i == first && k > 0 {
				// The handoff input is consumed; let the upstream stage
				// overwrite the slot (micro-batch j+2 reuses it).
				p.free[k-1] <- struct{}{}
			}
			src, dst = dst, src
		}
		if k < S-1 {
			p.ready[k] <- struct{}{}
		}
	}
}

// SetPprofLabels gives the execution goroutines pprof labels derived
// from base (the serving layer's model-labelled context) with ipu=<k>
// added per shard: workers pin theirs on next wake, and Execute wears
// ipu=0 for its inline shard. Idempotent per base context, so the
// serving layer can call it every batch for free.
func (p *ShardedPlan) SetPprofLabels(base context.Context) {
	if base == nil || base == p.pprofBase {
		return
	}
	ctxs := make([]context.Context, p.shards)
	for k := range ctxs {
		ctxs[k] = pprof.WithLabels(base, pprof.Labels("ipu", strconv.Itoa(k)))
	}
	p.pprofBase = base
	p.pprofCtxs = ctxs
}

// ModelledPhaseSeconds returns the modelled per-micro-step seconds of
// one MaxBatch execution split by BSP phase (compute, exchange);
// element-wise they sum to ModelledStepSeconds. Slices are plan-owned —
// copy to modify.
func (p *ShardedPlan) ModelledPhaseSeconds() (compute, exchange []float64) {
	return p.modelCompSec, p.modelExchSec
}

// ModelledStepSeconds returns the modelled duration of each micro-step of
// one MaxBatch execution under the plan's topology and strategy
// (index-aligned with Steps and the Frame's steps): the source plan step's
// modelled compute spread over its micro-steps, with the step's exchange
// time charged to the last of them. The slice is plan-owned — copy to
// modify. Dividing by MaxBatch gives the per-row modelled cost the drift
// detector compares measured wall-clock against.
func (p *ShardedPlan) ModelledStepSeconds() []float64 { return p.modelSec }

// Frame returns the measurement of the most recent Execute: one kernel
// cell per (micro-step, micro-batch, modelled IPU), under the barrier
// loop also each micro-step's span, and the batch wall. Plan-owned and
// overwritten by the next Execute.
func (p *ShardedPlan) Frame() *timeline.Frame { return p.frame }

// Close stops the worker goroutines. Every compiled ShardedPlan must be
// closed, since nothing else stops them; a closed plan must not be
// executed again. Closing twice is harmless.
func (p *ShardedPlan) Close() {
	p.quitOnce.Do(func() { close(p.quit) })
}

// runShard runs shard k's kernel of one barrier-loop micro-step and
// writes its cell — a slot only this shard writes, ordered before the
// orchestrator returns by the done token. A shard with no kernel (its
// window rounded to nothing) writes a zero-length cell at its wake, so
// its track still tiles the batch wall.
func (p *ShardedPlan) runShard(k int, st *step) {
	t0 := time.Now()
	var d int64
	if run := st.run[k]; run != nil {
		w := p.ws[k]
		w.Reset()
		run(p.curDst, p.curX, w)
		d = time.Since(t0).Nanoseconds()
	}
	*p.frame.Cell(p.stepIdx, 0, k) = timeline.Cell{Start: t0.Sub(p.execStart).Nanoseconds(), Dur: d}
}

func (p *ShardedPlan) workerLoop(k int, start <-chan struct{}) {
	for {
		select {
		case <-p.quit:
			return
		case <-start:
			// Apply this worker's ipu=k pprof label lazily: workerCtx[k]
			// is only ever touched by this goroutine, and pprofCtxs was
			// published by the start-channel send.
			if c := p.pprofCtxs; c != nil && p.workerCtx[k] != c[k] {
				p.workerCtx[k] = c[k]
				pprof.SetGoroutineLabels(c[k])
			}
			// One token per batch under the wavefront (the worker drains
			// its whole stage), one per step under the barrier loop.
			if p.stageFirst != nil {
				p.runStage(k)
			} else {
				p.runShard(k, &p.steps[p.stepIdx])
			}
			p.done <- struct{}{}
		}
	}
}
