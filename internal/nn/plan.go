package nn

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/butterfly"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/tensor"
	"repro/internal/tensor/microkernel"
)

// ErrPlanBatch is returned by Plan.Execute when the input has zero rows or
// more rows than the plan's MaxBatch.
var ErrPlanBatch = errors.New("nn: plan batch outside [1, MaxBatch]")

// ErrPlanWidth is returned by Plan.Execute when the input's column count
// does not match the plan's InputWidth.
var ErrPlanWidth = errors.New("nn: plan input width mismatch")

// StepKind classifies a lowered plan step — what one pass over the
// activation arena computes.
type StepKind int

const (
	// StepLinear is a matmul or structured multiply plus its bias add.
	StepLinear StepKind = iota
	// StepActivation is a standalone elementwise nonlinearity.
	StepActivation
	// StepFused is a linear step with the following activation folded in:
	// multiply, bias and nonlinearity write each output element once.
	StepFused
)

func (k StepKind) String() string {
	switch k {
	case StepLinear:
		return "linear"
	case StepActivation:
		return "activation"
	case StepFused:
		return "fused"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Lowering is a model's lowered inference program: the network walked
// once into a step list, each step carrying its output width, kind, the
// activation fusion folded into it, its kernel family, per-row flops and
// arena traffic, and the workspace demand its kernel declares. It fixes
// everything a plan's size and price depend on, for any row count,
// without packing a weight or running a kernel, so the IPU pricing and
// the shard planner read it directly. Pack binds the steps' kernels over
// packed weights, and Instance materialises plans over the packed
// lowering. A Lowering never changes once Lower or Pack returns it, so
// any number of goroutines may read it at once.
type Lowering struct {
	in, out int
	steps   []planStep

	// preFusion is the step silhouette before the fusion pass ran (equal
	// to the final silhouette when lowered with NoFuse), kept so Stats
	// can report the fusion win without lowering twice.
	preFusion []stepShape

	// packed is set on the copy Pack returns, whose steps carry kernels.
	packed bool
}

// Plan is a compiled inference program: an instance of a packed Lowering
// with pre-sized buffers for batches of up to MaxBatch rows. Execute
// ping-pongs activations between two plan-owned arenas and stages
// per-layer scratch through one workspace, so a batch runs with zero heap
// allocations, the first one included — the host-side analogue of a
// compiled Poplar program with static tensor liveness.
//
// A Plan shares the model's weights read-only (training the model while
// executing its plans is not safe — the same contract as Sequential.Infer)
// but owns its activation buffers, so a Plan must not be used from two
// goroutines at once: make one Instance per concurrent caller. Instances
// share the lowering, whose steps and packed weights never change, and
// each owns its arenas, workspace and frame. The serving layer lowers
// each model version once, packs it when it first needs a plan, and keeps
// idle instances on a free list per compiled program.
type Plan struct {
	*Lowering
	maxBatch int

	// frame is the measurement of the most recent Execute: one cell per
	// step on one IPU, laid back to back. Plan-owned and overwritten
	// every Execute, so measuring allocates nothing.
	frame *timeline.Frame

	ws         *tensor.Workspace
	bufA, bufB []float32
	actA, actB tensor.Matrix
}

// planStep is one lowered step: its output width, the source layer it was
// lowered from (the hook the shard partitioner splits on), for fused
// steps the activation layer that was folded in, and — once packed — a
// kernel that writes the step's inference result for input x into dst.
type planStep struct {
	name  string
	cols  int
	kind  StepKind
	layer Layer
	act   Layer // folded activation; nil unless kind == StepFused
	// sweeps counts extra read-modify-write passes over the output arena
	// beyond the producing write (the unfused bias add is one); it feeds
	// the modelled-traffic accounting.
	sweeps int
	// scratch declares what the kernel takes from the workspace at a
	// given row count; nil for kernels that take nothing.
	scratch func(rows int) tensor.Scratch
	run     func(dst, x *tensor.Matrix, ws *tensor.Workspace)

	// variant names the kernel shape the step runs (microkernel.Variant
	// for the dense family, "unrolled", "radix8", "blocktiled", …;
	// "reference" for a transform that declares no variant) and is "" for
	// steps with no kernel family (activations).
	variant string
	// packedW / packedA hold panel-packed copies of a dense-family step's
	// weight matrices for the tiled matmul kernel (packedA is the first
	// factor of a FactorizedDense). Built once by Pack and shared,
	// read-only, by every Instance of the packed lowering.
	packedW, packedA *tensor.PackedB
	// bytes is what the step keeps resident: its parameters, plus tables
	// such as a butterfly's permutation.
	bytes int
	// win is the step's column-window form: lowerLayer declares its
	// alignment, scratch, shared share and passes, and Pack binds the
	// passes' kernels beside run, over the same weights and packs. A step
	// with no passes does not split by columns.
	win Window

	// kernel is the Into-kernel family the step executes and flopsPerRow /
	// bytesPerRow its per-sample work and arena traffic — the static half
	// of the per-kernel accounting record Execute emits (the dynamic half
	// is the batch size and measured nanoseconds). bytesPerRow is filled
	// in after fusion from the step's traffic silhouette.
	kernel      obs.Kernel
	flopsPerRow int64
	bytesPerRow int64
}

// stepShape is the traffic-relevant silhouette of one step: input width
// read, output width written, and extra arena sweeps.
type stepShape struct{ in, out, sweeps int }

// Window is the column-window form of a step's kernel: what one
// tensor-parallel shard runs to write its window [lo, hi) of the step's
// output, over the step's own weights and packs, so a split copies none
// of them. It also says what a window costs, so the shard planner prices
// the windows a split runs from the lowering alone: a window of c of the
// step's cols columns holds SharedBytes plus c/cols of the rest of the
// step's resident bytes, and computes SharedFlopsPerRow plus c/cols of
// the rest of its flops.
type Window struct {
	// Align is the multiple every window bound but the step's last column
	// falls on: microkernel.NR for the packed matmul's panels, the block
	// size for pixelfly, 1 otherwise.
	Align int
	// Scratch declares what a pass takes from the workspace for a window
	// of cols columns at rows rows; nil declares nothing.
	Scratch func(rows, cols int) tensor.Scratch
	// SharedBytes and SharedFlopsPerRow are what every window holds and
	// computes per row whatever its columns: a factorised layer's A and
	// x·A, a low-rank or pixelfly transform's V and x·V, a butterfly's
	// permutation table.
	SharedBytes       int
	SharedFlopsPerRow int64
	// Passes run in order with a barrier between each, every shard on its
	// own window, and the step's bias and folded activation ride the
	// last. Lowering declares their shapes; their kernels are nil before
	// Pack. A step with no passes has no window form.
	Passes []WindowPass
}

// WindowPass is one barrier-delimited pass of a Window.
type WindowPass struct {
	// Tag suffixes the pass's micro-step name: "" for a step's one pass.
	Tag string
	// Span is the width of the aligned column blocks inside which the
	// pass reads the previous pass's output; 0 for a first pass, which
	// reads the whole step input. A window narrower than Span reads
	// columns another shard wrote: on a pod, an IPU-Link exchange.
	Span int
	// Variant names the kernel shape the pass runs.
	Variant string
	// Run writes columns [lo, hi) of the pass's output into the same
	// columns of dst (x.Rows × the step's width), reading x: the step
	// input for the first pass, the previous pass's output after it. Nil
	// before Pack.
	Run windowRun
}

// windowRun is a window pass's kernel.
type windowRun = func(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int)

// PlanOptions tune plan compilation.
type PlanOptions struct {
	// NoFuse disables the step-fusion pass, keeping one step per layer.
	// Fused and unfused plans are bit-for-bit equivalent; the unfused
	// form is the reference the equivalence tests pin fusion against and
	// a debugging aid when a fused kernel is suspect.
	NoFuse bool
}

// CompilePlan lowers the network, packs it and materialises a plan for
// batches of up to maxBatch rows (see CompilePlanOpts).
func (s *Sequential) CompilePlan(maxBatch int) (*Plan, error) {
	return s.CompilePlanOpts(maxBatch, PlanOptions{})
}

// CompilePlanOpts is CompilePlan with explicit options: Lower, then Pack,
// then Instance at maxBatch — the same three stages the serving layer
// runs apart.
func (s *Sequential) CompilePlanOpts(maxBatch int, opts PlanOptions) (*Plan, error) {
	low, err := s.Lower(opts)
	if err != nil {
		return nil, err
	}
	return low.Pack().Instance(maxBatch)
}

// Lower walks the network once into its Lowering. Every layer kind
// (Dense, StructuredLinear, ReLU, FactorizedDense) lowers to a
// destination-passing step; any other Layer is an error that names it.
// Unless opts.NoFuse is set, a peephole pass then rewrites every adjacent
// (linear, activation) step pair into one fused step whose kernel applies
// multiply, bias and nonlinearity in a single pass over the output arena.
// Lowering packs no weight and runs no kernel.
func (s *Sequential) Lower(opts PlanOptions) (*Lowering, error) {
	if len(s.Layers) == 0 {
		return nil, fmt.Errorf("nn: cannot compile a plan for an empty model")
	}
	in, err := inputWidth(s.Layers[0])
	if err != nil {
		return nil, err
	}
	l := &Lowering{in: in}
	width := in
	for i, layer := range s.Layers {
		st, outW, err := lowerLayer(layer, width)
		if err != nil {
			return nil, fmt.Errorf("nn: plan layer %d (%s): %w", i, layer.Name(), err)
		}
		st.layer = layer
		st.kernel = kernelOfLayer(layer)
		l.steps = append(l.steps, st)
		width = outW
	}
	l.out = width
	l.preFusion = stepShapes(l.in, l.steps)
	if !opts.NoFuse {
		l.steps = fusePlanSteps(l.steps)
	}
	// The per-row arena traffic of each surviving step comes from the
	// post-fusion silhouette — the same model trafficBytes prices, divided
	// down to one row.
	for i, sh := range stepShapes(l.in, l.steps) {
		l.steps[i].bytesPerRow = int64(4 * (sh.in + sh.out + 2*sh.sweeps*sh.out))
	}
	return l, nil
}

// Pack returns a copy of the lowering whose steps carry their kernels:
// the dense and factorised weights are packed into panels here, once, and
// every Instance of the copy, every pipeline stage and every
// tensor-parallel shard's window shares them read-only. It only binds
// kernels: each step's window passes are bound on a copy of the declared
// list, so the receiver is left as it was, and pricing may go on reading
// it while Pack runs.
func (l *Lowering) Pack() *Lowering {
	q := *l
	q.steps = make([]planStep, len(l.steps))
	for i := range l.steps {
		q.steps[i] = l.steps[i]
		q.steps[i].bind()
	}
	q.packed = true
	return &q
}

// Packed reports whether the lowering's steps carry kernels (Pack built
// it), which Instance and every sharded plan need.
func (l *Lowering) Packed() bool { return l.packed }

// Instance materialises a plan for batches of up to maxBatch rows over the
// packed lowering: it shares the steps' kernels and packed weights and
// allocates its own arenas, workspace and frame, each sized from what the
// lowering declares — an arena to the widest step that lands in it, the
// workspace to the largest step's declared scratch — so it runs no
// kernel, and its first Execute allocates nothing. It reads only what
// lowering fixed, so it may run while another goroutine executes a plan
// of the same lowering.
func (l *Lowering) Instance(maxBatch int) (*Plan, error) {
	if maxBatch <= 0 {
		return nil, fmt.Errorf("nn: plan maxBatch %d must be positive", maxBatch)
	}
	if !l.packed {
		return nil, errors.New("nn: Instance needs a packed lowering (Lowering.Pack)")
	}
	wA, wB := l.arenaWidths()
	return &Plan{
		Lowering: l,
		maxBatch: maxBatch,
		frame:    timeline.NewFrame(len(l.steps), 1, 1, nil, false),
		ws:       tensor.NewWorkspace(l.scratch(maxBatch)),
		bufA:     make([]float32, maxBatch*wA),
		bufB:     make([]float32, maxBatch*wB),
	}, nil
}

// arenaWidths returns the widths of the two ping-pong arenas. They
// alternate ownership of the step outputs, so each is sized to the widest
// step that lands in it — fusing steps out of the list shifts the parity
// and typically shrinks one arena (e.g. an SHL's second arena drops from
// hidden width to class width once multiply+bias+ReLU collapse into one
// step).
func (l *Lowering) arenaWidths() (wA, wB int) {
	for i, st := range l.steps {
		if i%2 == 0 {
			wA = max(wA, st.cols)
		} else {
			wB = max(wB, st.cols)
		}
	}
	return wA, wB
}

// StepScratch returns the workspace demand step i's kernel declares at
// rows rows.
func (l *Lowering) StepScratch(i, rows int) tensor.Scratch {
	if f := l.steps[i].scratch; f != nil {
		return f(rows)
	}
	return tensor.Scratch{}
}

// scratch is the workspace demand of a plan at rows rows: every step
// resets the workspace, so it is the largest step's.
func (l *Lowering) scratch(rows int) tensor.Scratch {
	var d tensor.Scratch
	for i := range l.steps {
		d = d.Max(l.StepScratch(i, rows))
	}
	return d
}

// fusePlanSteps is the peephole rewriter: a single left-to-right scan that
// replaces every adjacent (linear, activation) pair with one fused step.
// Steps that don't match pass through unchanged, so the pass is safe on
// any lowered sequence (trailing linears, standalone activations after
// them).
func fusePlanSteps(steps []planStep) []planStep {
	out := steps[:0:0]
	for i := 0; i < len(steps); i++ {
		if i+1 < len(steps) {
			if f, ok := fusePair(&steps[i], &steps[i+1]); ok {
				out = append(out, f)
				i++
				continue
			}
		}
		out = append(out, steps[i])
	}
	return out
}

// fusePair builds the fused step for a (linear, activation) step pair, or
// reports that the pair doesn't fuse. Only elementwise column-local
// activations may fold (ReLU is the only one the framework has), which is
// also what lets the shard partitioner keep fusion inside tensor-parallel
// column windows.
func fusePair(lin, actStep *planStep) (planStep, bool) {
	if lin.kind != StepLinear || actStep.kind != StepActivation || lin.cols != actStep.cols {
		return planStep{}, false
	}
	if _, ok := actStep.layer.(*ReLU); !ok {
		return planStep{}, false
	}
	return planStep{
		name:    lin.name + "+" + actStep.name,
		cols:    lin.cols,
		kind:    StepFused,
		layer:   lin.layer,
		act:     actStep.layer,
		scratch: lin.scratch,
		variant: lin.variant,
		bytes:   lin.bytes,
		win:     lin.win,
		// The fused step keeps the linear step's kernel family and adds
		// the folded activation's element ops.
		kernel:      lin.kernel,
		flopsPerRow: lin.flopsPerRow + actStep.flopsPerRow,
	}, true
}

// stepShapes derives the traffic silhouette of a step list given the plan
// input width.
func stepShapes(in int, steps []planStep) []stepShape {
	shapes := make([]stepShape, len(steps))
	for i, st := range steps {
		shapes[i] = stepShape{in: in, out: st.cols, sweeps: st.sweeps}
		in = st.cols
	}
	return shapes
}

// trafficBytes models the activation-arena bytes one batch moves: each
// step reads its input once, writes its output once, and pays one
// read+write resweep per extra pass (the unfused bias add and activation
// are such passes). Transform-internal scratch (butterfly stage ping-pong,
// FFT buffers) is excluded — it is identical between fused and unfused
// plans.
func trafficBytes(batch int, shapes []stepShape) int {
	total := 0
	for _, s := range shapes {
		total += 4 * batch * (s.in + s.out + 2*s.sweeps*s.out)
	}
	return total
}

// PlanStats reports a lowering's silhouette at a row count: what the
// fusion pass merged and what one full execution costs in modelled arena
// traffic and resident buffers.
type PlanStats struct {
	// MaxBatch is the row count the figures are for.
	MaxBatch int
	// Steps is the executed step count; StepsBeforeFusion the lowered
	// count before the peephole pass (equal when compiled with NoFuse).
	Steps             int
	StepsBeforeFusion int
	// FusedSteps counts steps carrying a folded activation.
	FusedSteps int
	// ArenaBytes is the ping-pong activation arenas' total backing size;
	// WorkspaceBytes the scratch arena's backing, from the steps'
	// declared demand.
	ArenaBytes     int
	WorkspaceBytes int
	// TrafficBytes is the modelled activation-arena traffic of one
	// max-batch execution; TrafficBytesBeforeFusion what the unfused
	// step list would move.
	TrafficBytes             int
	TrafficBytesBeforeFusion int
}

// Stats reports the lowering's fusion and memory silhouette at rows rows:
// the arenas and workspace an instance for that many rows holds, and what
// one full batch moves.
func (l *Lowering) Stats(rows int) PlanStats {
	fused := 0
	for i := range l.steps {
		if l.steps[i].kind == StepFused {
			fused++
		}
	}
	wA, wB := l.arenaWidths()
	return PlanStats{
		MaxBatch:                 rows,
		Steps:                    len(l.steps),
		StepsBeforeFusion:        len(l.preFusion),
		FusedSteps:               fused,
		ArenaBytes:               4 * rows * (wA + wB),
		WorkspaceBytes:           l.scratch(rows).Bytes(),
		TrafficBytes:             trafficBytes(rows, stepShapes(l.in, l.steps)),
		TrafficBytesBeforeFusion: trafficBytes(rows, l.preFusion),
	}
}

// MaxBatch returns the largest row count Execute accepts.
func (p *Plan) MaxBatch() int { return p.maxBatch }

// InputWidth returns the feature width the lowered network expects.
func (l *Lowering) InputWidth() int { return l.in }

// OutputWidth returns the width of the result matrix.
func (l *Lowering) OutputWidth() int { return l.out }

// Steps returns the lowered step names, in execution order. Fused steps
// carry both source names joined by '+' (e.g. "butterfly(1024)+relu").
func (l *Lowering) Steps() []string {
	names := make([]string, len(l.steps))
	for i, st := range l.steps {
		names[i] = st.name
	}
	return names
}

// NumSteps returns how many lowered steps a plan executes.
func (l *Lowering) NumSteps() int { return len(l.steps) }

// StepInfo describes one lowered step — the introspection surface
// debuggers and the shard partitioner read, which must stay coherent when
// fusion merges layers: a fused step reports its linear source layer under
// Layer and the folded activation under Act, so walking the steps still
// accounts for every layer exactly once.
type StepInfo struct {
	Index int
	Name  string
	Cols  int
	Kind  StepKind
	// Layer is the source layer (the linear layer for fused steps).
	Layer Layer
	// Act is the activation layer folded into a fused step; nil otherwise.
	Act Layer
	// Variant names the kernel shape the step runs ("reference" for a
	// transform that declares no variant, "" for steps with no kernel
	// family).
	Variant string
	// Bytes is what the step keeps resident: its parameters, plus tables
	// such as a butterfly's permutation.
	Bytes int
}

// Step returns the introspection record of step i.
func (l *Lowering) Step(i int) StepInfo {
	st := &l.steps[i]
	return StepInfo{Index: i, Name: st.name, Cols: st.cols, Kind: st.kind, Layer: st.layer, Act: st.act, Variant: st.variant, Bytes: st.bytes}
}

// StepVariant returns the kernel variant name of step i — "reference"
// for a transform that declares no variant, "" for steps with no kernel
// family.
func (l *Lowering) StepVariant(i int) string { return l.steps[i].variant }

// StepCols returns the output width of step i.
func (l *Lowering) StepCols(i int) int { return l.steps[i].cols }

// StepRunner returns the full-width kernel of step i of a packed
// lowering (nil before Pack): it writes the step's output for input x
// into dst (x.Rows × StepCols(i)), staging scratch through the
// caller-owned workspace, which must hold StepScratch(i, x.Rows). For
// fused steps the kernel is the whole fused pass (multiply + bias +
// activation). The kernel captures only the layer's weights and packs —
// not a plan or its arenas — so kernels of one lowering may run
// concurrently with distinct workspaces. Pipeline-sharded plans run it on
// a step's owning stage; tensor-parallel plans run StepWindow's passes
// instead.
func (l *Lowering) StepRunner(i int) func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
	return l.steps[i].run
}

// StepWindow returns the column-window form of step i, bound over the
// same weights and packs as StepRunner: it has no passes when the step
// does not split by columns, and its passes' kernels are nil before
// Pack.
func (l *Lowering) StepWindow(i int) Window { return l.steps[i].win }

// Execute runs the plan over x (rows in [1, MaxBatch], cols ==
// InputWidth) and returns the output matrix; inputs outside that contract
// get ErrPlanBatch / ErrPlanWidth. The result aliases plan-owned memory:
// it is valid until the next Execute on this plan, so callers that retain
// it across executions (or hand the plan back to a pool) must copy first.
// Output is bit-for-bit identical to Sequential.Infer on the same input,
// fused or not.
func (p *Plan) Execute(x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != p.in {
		return nil, fmt.Errorf("%w: got %d columns, plan expects %d", ErrPlanWidth, x.Cols, p.in)
	}
	if x.Rows < 1 || x.Rows > p.maxBatch {
		return nil, fmt.Errorf("%w: got %d rows, plan accepts 1..%d", ErrPlanBatch, x.Rows, p.maxBatch)
	}
	f := p.frame
	f.Begin(x.Rows, 1)
	f.Start = time.Now()
	var off int64
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
		p.ws.Reset()
		t0 := time.Now()
		st.run(act, cur, p.ws)
		// One chip has no exchange or barrier: the steps' clocks are
		// laid back to back, and the batch wall is their sum.
		d := time.Since(t0).Nanoseconds()
		*f.Cell(i, 0, 0) = timeline.Cell{Start: off, Dur: d}
		off += d
		cur = act
		useA = !useA
	}
	f.Wall = off
	return cur, nil
}

// Frame returns the measurement of the most recent Execute: one kernel
// cell per step on IPU 0, laid back to back, with the batch wall their
// sum. Plan-owned and overwritten by the next Execute.
func (p *Plan) Frame() *timeline.Frame { return p.frame }

// StepKernel returns the Into-kernel family step i executes — the
// attribution key of the per-kernel accounting (fused steps report their
// linear source's family).
func (l *Lowering) StepKernel(i int) obs.Kernel { return l.steps[i].kernel }

// StepFlopsPerRow returns the modelled per-sample flop count of step i
// (fused steps include the folded activation's element ops).
func (l *Lowering) StepFlopsPerRow(i int) int64 { return l.steps[i].flopsPerRow }

// StepArenaBytesPerRow returns the modelled per-sample activation-arena
// traffic of step i, from the same silhouette trafficBytes prices.
func (l *Lowering) StepArenaBytesPerRow(i int) int64 { return l.steps[i].bytesPerRow }

// inputWidth infers the feature width a layer consumes; layers without a
// declared width (e.g. a leading ReLU) cannot head a plan.
func inputWidth(l Layer) (int, error) {
	switch t := l.(type) {
	case *Dense:
		return t.In, nil
	case *StructuredLinear:
		return t.N, nil
	case *FactorizedDense:
		return t.In, nil
	default:
		return 0, fmt.Errorf("nn: cannot infer plan input width from leading layer %s", l.Name())
	}
}

// lowerLayer emits the plan step for one layer given its input width,
// returning the step and the layer's output width. It fixes the step's
// shape, resident bytes and per-row flops and declares its kernel's
// scratch, and for a column-separable step its window: alignment,
// scratch, the share every window repeats, and the shape of each pass.
// The kernels themselves are bound, and dense weights packed, by Pack.
// Structured layers record the kernel variant their transform names.
func lowerLayer(l Layer, width int) (planStep, int, error) {
	switch t := l.(type) {
	case *Dense:
		if t.In != width {
			return planStep{}, 0, fmt.Errorf("input width %d != %d", width, t.In)
		}
		return planStep{name: t.Name(), cols: t.Out, kind: StepLinear, sweeps: 1,
			bytes: 4 * t.ParamCount(), flopsPerRow: int64(t.Flops(1)), variant: microkernel.Variant(),
			win: Window{Align: microkernel.NR, Passes: []WindowPass{{Variant: microkernel.Variant()}}}}, t.Out, nil
	case *StructuredLinear:
		if t.N != width {
			return planStep{}, 0, fmt.Errorf("input width %d != %d", width, t.N)
		}
		st := planStep{name: t.Name(), cols: t.N, kind: StepLinear, sweeps: 1,
			bytes: 4 * t.ParamCount(), flopsPerRow: int64(t.Flops(1)),
			variant: transformVariant(t.T), scratch: t.T.Scratch}
		switch tr := t.T.(type) {
		case colsTransform:
			bytes, flops := tr.ColsShared()
			st.win = Window{Align: tr.ColsAlign(), Scratch: tr.ColsScratch,
				SharedBytes: bytes, SharedFlopsPerRow: flops, Passes: []WindowPass{{Variant: st.variant}}}
		case *butterfly.Butterfly:
			// The window's permutation and stage sweeps stage nothing, and
			// every window holds the permutation table.
			table := 8 * len(tr.Perm)
			st.bytes += table
			st.win = Window{Align: 1, SharedBytes: table, Passes: butterflyPasses(tr)}
		}
		// Fastfood and circulant declare no window: every output column
		// mixes every input feature through a whole Hadamard or FFT pass,
		// so a window would save neither memory nor compute.
		return st, t.N, nil
	case *ReLU:
		// One element op per column, in one pass with no kernel family.
		return planStep{name: t.Name(), cols: width, kind: StepActivation, flopsPerRow: int64(width),
			win: Window{Align: 1, Passes: []WindowPass{{}}}}, width, nil
	case *FactorizedDense:
		if t.In != width {
			return planStep{}, 0, fmt.Errorf("input width %d != %d", width, t.In)
		}
		// Both kernels stage x·A, rows×rank, in the workspace; every window
		// holds A and computes and stages the whole of x·A.
		scratch := func(rows int) tensor.Scratch { return tensor.Scratch{Floats: rows * t.Rank, Headers: 1} }
		return planStep{name: t.Name(), cols: t.Out, kind: StepLinear, sweeps: 1,
			bytes: 4 * t.ParamCount(), flopsPerRow: int64(t.Flops(1)),
			variant: microkernel.Variant(), scratch: scratch,
			win: Window{Align: microkernel.NR, Scratch: func(rows, cols int) tensor.Scratch { return scratch(rows) },
				SharedBytes: 4 * t.In * t.Rank, SharedFlopsPerRow: int64(2 * t.In * t.Rank),
				Passes: []WindowPass{{Variant: microkernel.Variant()}}}}, t.Out, nil
	default:
		return planStep{}, 0, fmt.Errorf("no plan lowering for layer type %T", l)
	}
}

// colsTransform is a transform whose ApplyInto is column separable
// (pixelfly, low-rank): ApplyColsInto writes columns [lo, hi) of
// act(Apply(x) + bias) into the same columns of dst, bias
// window-relative, and ApplyInto is its window [0, N). ColsScratch
// declares its workspace demand for a window of cols columns, ColsAlign
// the multiple its window bounds fall on, and ColsShared the parameter
// bytes and per-row flops every window repeats whatever its columns.
type colsTransform interface {
	ApplyColsInto(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int, bias []float32, act tensor.Activation)
	ColsScratch(rows, cols int) tensor.Scratch
	ColsAlign() int
	ColsShared() (bytes int, flopsPerRow int64)
}

// bind builds the step's kernel and, for a column-separable step, its
// window passes' kernels over the same weights. Dense and factorised
// layers pack their weight panels here, so the tiled matmul streams B in
// panel order, and their windows read whole panels of those packs in
// place; structured layers run their transform's ApplyInto, and its
// ApplyColsInto or, for a butterfly, the permutation and stage sweeps on
// the window. A fused step folds the bias and activation into the
// kernel's final pass; an unfused linear step adds the bias in a sweep of
// its own, and its window folds it in, which is the same float32 add.
func (st *planStep) bind() {
	var bias []float32
	var apply func(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation)
	var window func(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int, bias []float32, act tensor.Activation)
	act := st.activation()
	switch t := st.layer.(type) {
	case *Dense:
		pw := tensor.Pack(t.W)
		st.packedW, bias = pw, t.Bias
		apply = func(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation) {
			tensor.MatMulPackedBiasActParallelInto(dst, x, pw, bias, act)
		}
		window = func(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int, bias []float32, act tensor.Activation) {
			tensor.MatMulPackedColsBiasActInto(dst, x, pw, lo, hi, bias, act)
		}
	case *FactorizedDense:
		pa, pb := tensor.Pack(t.A), tensor.Pack(t.B)
		st.packedA, st.packedW, bias = pa, pb, t.Bias
		apply = func(dst, x *tensor.Matrix, ws *tensor.Workspace, bias []float32, act tensor.Activation) {
			xa := ws.Take(x.Rows, t.Rank)
			tensor.MatMulPackedBiasActParallelInto(xa, x, pa, nil, tensor.ActNone)
			tensor.MatMulPackedBiasActParallelInto(dst, xa, pb, bias, act)
		}
		// The rank bottleneck x·A is replicated on every shard: it is
		// tiny, r ≪ Out.
		window = func(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int, bias []float32, act tensor.Activation) {
			xa := ws.Take(x.Rows, t.Rank)
			tensor.MatMulPackedColsBiasActInto(xa, x, pa, 0, t.Rank, nil, tensor.ActNone)
			tensor.MatMulPackedColsBiasActInto(dst, xa, pb, lo, hi, bias, act)
		}
	case *StructuredLinear:
		bias, apply = t.Bias, t.T.ApplyInto
		switch tr := t.T.(type) {
		case colsTransform:
			window = tr.ApplyColsInto
		case *butterfly.Butterfly:
			st.win.Passes = bindPasses(st.win.Passes, butterflyRuns(tr, bias, act)...)
		}
	case *ReLU:
		st.run = reluInto
		st.win.Passes = bindPasses(st.win.Passes, reluCols)
		return
	default:
		panic(fmt.Sprintf("nn: no kernel for lowered layer type %T", st.layer))
	}
	if window != nil {
		st.win.Passes = bindPasses(st.win.Passes, func(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int) {
			window(dst, x, ws, lo, hi, bias[lo:hi], act)
		})
	}
	if st.kind == StepFused {
		st.run = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
			apply(dst, x, ws, bias, act)
		}
		return
	}
	st.run = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
		apply(dst, x, ws, nil, tensor.ActNone)
		tensor.AddRowVector(dst, bias)
	}
}

// bindPasses returns a copy of the declared passes with runs bound as
// their kernels, in order; the declared list is left as it was.
func bindPasses(declared []WindowPass, runs ...windowRun) []WindowPass {
	passes := slices.Clone(declared)
	for p := range passes {
		passes[p].Run = runs[p]
	}
	return passes
}

// activation is the activation a step's kernel applies: the folded ReLU
// of a fused step, none otherwise.
func (st *planStep) activation() tensor.Activation {
	if st.kind == StepFused {
		return tensor.ActReLU
	}
	return tensor.ActNone
}

// butterflyPasses is the window form of a butterfly layer: the input
// permutation, then one pass per factor stage. A stage whose pairing
// block is wider than a shard's window reads the partner columns another
// shard wrote the pass before — on a pod, one pairwise IPU-Link exchange
// per stage, on the host the shared arena plus the barrier.
func butterflyPasses(b *butterfly.Butterfly) []WindowPass {
	passes := []WindowPass{{Tag: ":perm", Variant: transformVariant(b)}}
	for _, f := range b.Factors {
		passes = append(passes, WindowPass{Tag: fmt.Sprintf(":stage%d", f.Stage), Span: 1 << f.Stage, Variant: "reference"})
	}
	return passes
}

// butterflyRuns are the kernels of butterflyPasses: the permutation, then
// the stage sweeps, which are the element-wise window kernel, not
// ApplyInto's unrolled pair kernels, which write both halves of every
// pair. The bias and activation ride the last stage: both are
// column-local.
func butterflyRuns(b *butterfly.Butterfly, bias []float32, act tensor.Activation) []windowRun {
	runs := []windowRun{func(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int) {
		b.PermuteColsInto(dst, x, lo, hi)
	}}
	for i, f := range b.Factors {
		run := func(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int) {
			f.ApplyColsInto(dst, x, lo, hi, nil, tensor.ActNone)
		}
		if i == len(b.Factors)-1 {
			run = func(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int) {
				f.ApplyColsInto(dst, x, lo, hi, bias[lo:hi], act)
			}
		}
		runs = append(runs, run)
	}
	return runs
}

// reluInto is the standalone ReLU step's kernel.
func reluInto(dst, x *tensor.Matrix, ws *tensor.Workspace) {
	for i, v := range x.Data {
		dst.Data[i] = microkernel.ReLU(v)
	}
}

// reluCols is the standalone ReLU step's window kernel: it clamps columns
// [lo, hi).
func reluCols(dst, x *tensor.Matrix, ws *tensor.Workspace, lo, hi int) {
	for r := 0; r < x.Rows; r++ {
		out := dst.Row(r)[lo:hi]
		for i, v := range x.Row(r)[lo:hi] {
			out[i] = microkernel.ReLU(v)
		}
	}
}

// transformVariant names the kernel a transform's ApplyInto runs: its
// MicroVariant where it declares one, "reference" otherwise.
func transformVariant(t Transform) string {
	if v, ok := t.(interface{ MicroVariant() string }); ok {
		return v.MicroVariant()
	}
	return "reference"
}
