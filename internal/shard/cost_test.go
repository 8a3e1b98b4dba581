package shard

import (
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/ipu"
	"repro/internal/nn"
)

// Estimate prices the lowered model at the given batch and shard count
// with the per-IPU budget defaulting to the full chip SRAM.
func Estimate(low *nn.Lowering, batch, shards int, topo Topology) (Cost, error) {
	return EstimateBudget(low, batch, shards, topo, 0)
}

func TestEstimateSplitsWeightMemory(t *testing.T) {
	topo := DefaultTopology(4)
	for _, method := range []nn.Method{nn.Baseline, nn.Butterfly, nn.Pixelfly} {
		_, pl := buildPlan(t, method, 5)
		c1, err := Estimate(pl.Lowering, testMaxBatch, 1, topo)
		if err != nil {
			t.Fatal(err)
		}
		c4, err := estimateWith(pl.Lowering, testMaxBatch, 4, topo, TensorParallel)
		if err != nil {
			t.Fatal(err)
		}
		if c4.PerIPUWeightBytes >= c1.PerIPUWeightBytes {
			t.Errorf("%v: 4-shard per-IPU weights %d not below 1-shard %d",
				method, c4.PerIPUWeightBytes, c1.PerIPUWeightBytes)
		}
		if c1.ExchangeBytesPerBatch != 0 || c1.ExchangeSecondsPerBatch != 0 {
			t.Errorf("%v: single shard should exchange nothing, got %d bytes",
				method, c1.ExchangeBytesPerBatch)
		}
		if c4.ExchangeBytesPerBatch <= 0 || c4.ExchangeSecondsPerBatch <= 0 {
			t.Errorf("%v: 4-shard tensor parallel must pay exchange, got %d bytes",
				method, c4.ExchangeBytesPerBatch)
		}
	}
}

// TestPlannerPricesExecutedWindows pins the tensor-parallel prices to
// the windows the shards run. At N = 256 the hidden layer splits evenly,
// and the 10-class head runs as panel-aligned windows: [0, 8) [8, 10) on
// 2 shards, [0, 0) [0, 8) [8, 8) [8, 10) on 4. So the busiest shard holds
// its share of the hidden layer and 8 of the head's 10 columns, and the
// head step computes as long as its 8-column window.
func TestPlannerPricesExecutedWindows(t *testing.T) {
	const headCols = 8 // the head's widest window, [0, 8)
	topo := DefaultTopology(4)
	for _, method := range []nn.Method{nn.Baseline, nn.Butterfly} {
		net, pl := buildPlan(t, method, 31)
		head := net.Layers[2].(*nn.Dense)
		for _, shards := range []int{2, 4} {
			// A window of c columns holds c columns of W and of the bias;
			// a butterfly's holds c/N of every stage's angles, c bias
			// entries and the whole permutation table.
			c := testN / shards
			var want int
			switch l := net.Layers[0].(type) {
			case *nn.Dense:
				want = 4 * (l.In*c + c)
			case *nn.StructuredLinear:
				bf := l.T.(*butterfly.Butterfly)
				want = 4*(bf.ParamCount()*c/testN+c) + 8*len(bf.Perm)
			}
			want += 4 * (head.In*headCols + headCols)
			cost, err := estimateWith(pl.Lowering, testMaxBatch, shards, topo, TensorParallel)
			if err != nil {
				t.Fatal(err)
			}
			if cost.PerIPUWeightBytes != want {
				t.Errorf("%v at %d shards: per-IPU weight bytes %d, the busiest shard's windows hold %d",
					method, shards, cost.PerIPUWeightBytes, want)
			}
			sp, err := CompileMicro(pl.Lowering, testMaxBatch, topo, shards, TensorParallel, 1)
			if err != nil {
				t.Fatal(err)
			}
			compute, _ := sp.ModelledPhaseSeconds()
			got := compute[len(compute)-1]
			sp.Close()
			wantSec := 2 * float64(testMaxBatch*head.In*headCols) / classRate(topo, ipu.ClassAMP)
			if math.Abs(got-wantSec) > 1e-9*wantSec {
				t.Errorf("%v at %d shards: the head step is modelled at %.4g s, its %d-column window at %.4g s",
					method, shards, got, headCols, wantSec)
			}
		}
	}
}

// TestPlannerReadsNoOperator pins the layering: the planner prices, and
// the split runs, what the lowering declares, so no non-test file of the
// package imports an operator package.
func TestPlannerReadsNoOperator(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch path {
			case "repro/internal/baselines", "repro/internal/butterfly", "repro/internal/fft",
				"repro/internal/hadamard", "repro/internal/pixelfly", "repro/internal/sparse":
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

// TestPlannerStrategyChoice checks the fitting-then-fastest rule:
// unsplittable layers force pipeline; while everything fits, the lower
// modelled latency wins (pipeline at SHL scale — all-gathers cost more
// than the compute a split saves); and once the budget drops below
// pipeline's biggest stage (one whole dense layer — the memory wall),
// only tensor-parallel still fits and the planner must switch.
func TestPlannerStrategyChoice(t *testing.T) {
	topo := DefaultTopology(4)
	for _, method := range []nn.Method{nn.Fastfood, nn.Circulant} {
		_, pl := buildPlan(t, method, 6)
		c, err := Estimate(pl.Lowering, testMaxBatch, 4, topo)
		if err != nil {
			t.Fatal(err)
		}
		if c.Strategy != Pipeline {
			t.Errorf("%v: planner chose %v, want pipeline (unsplittable)", method, c.Strategy)
		}
	}
	_, pl := buildPlan(t, nn.Baseline, 6)
	tp, err := estimateWith(pl.Lowering, testMaxBatch, 4, topo, TensorParallel)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := estimateWith(pl.Lowering, testMaxBatch, 4, topo, Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if tp.PerIPUBytes >= pipe.PerIPUBytes {
		t.Fatalf("tensor-parallel footprint %d not below pipeline's %d (dense layer should dominate)",
			tp.PerIPUBytes, pipe.PerIPUBytes)
	}
	// Everything fits the default (full-SRAM) budget: latency decides, and
	// at this narrow width the all-gathers outweigh the compute saved.
	c, err := Estimate(pl.Lowering, testMaxBatch, 4, topo)
	if err != nil {
		t.Fatal(err)
	}
	if c.Strategy != Pipeline {
		t.Errorf("roomy budget: planner chose %v, want pipeline (lower latency)", c.Strategy)
	}
	// Budget between the two footprints: pipeline cannot split the dense
	// layer, so tensor-parallel is the only strategy that fits.
	c, err = EstimateBudget(pl.Lowering, testMaxBatch, 4, topo, tp.PerIPUBytes)
	if err != nil {
		t.Fatal(err)
	}
	if c.Strategy != TensorParallel {
		t.Errorf("memory wall: planner chose %v, want tensor-parallel", c.Strategy)
	}
	// Budget below both: the frugal strategy (tensor-parallel) wins.
	c, err = EstimateBudget(pl.Lowering, testMaxBatch, 4, topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Strategy != TensorParallel {
		t.Errorf("starved budget: planner chose %v, want tensor-parallel (frugal)", c.Strategy)
	}
}

func TestFitShardsPicksSmallest(t *testing.T) {
	topo := DefaultTopology(4)
	_, pl := buildPlan(t, nn.Baseline, 8)
	one, err := Estimate(pl.Lowering, testMaxBatch, 1, topo)
	if err != nil {
		t.Fatal(err)
	}
	// Generous budget: one shard suffices.
	c, fits, err := FitShards(pl.Lowering, testMaxBatch, topo, one.PerIPUBytes+1)
	if err != nil || !fits || c.Shards != 1 {
		t.Fatalf("generous budget: shards=%d fits=%v err=%v, want 1/true/nil", c.Shards, fits, err)
	}
	// Budget below the single-chip footprint: must shard up, smallest first.
	c, fits, err = FitShards(pl.Lowering, testMaxBatch, topo, one.PerIPUBytes-1)
	if err != nil || !fits {
		t.Fatalf("tight budget: fits=%v err=%v", fits, err)
	}
	if c.Shards < 2 {
		t.Fatalf("tight budget picked %d shards, want ≥ 2", c.Shards)
	}
	if c.PerIPUBytes >= one.PerIPUBytes {
		t.Fatalf("sharded footprint %d not below unsharded %d", c.PerIPUBytes, one.PerIPUBytes)
	}
	// Impossible budget: report the largest count and fits == false.
	c, fits, err = FitShards(pl.Lowering, testMaxBatch, topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fits || c.Shards != 4 {
		t.Fatalf("impossible budget: shards=%d fits=%v, want 4/false", c.Shards, fits)
	}
	// Zero budget defaults to the full per-IPU SRAM.
	c, fits, err = FitShards(pl.Lowering, testMaxBatch, topo, 0)
	if err != nil || !fits || c.Shards != 1 {
		t.Fatalf("default budget: shards=%d fits=%v err=%v", c.Shards, fits, err)
	}
}

// TestShardedPlanReportsCost ties the compiled plan to its estimate.
func TestShardedPlanReportsCost(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 4)
	topo := DefaultTopology(4)
	sp, err := Compile(pl.Lowering, pl.MaxBatch(), topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	c, err := Estimate(pl.Lowering, pl.MaxBatch(), 4, topo)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards != 4 || c.Batch != testMaxBatch {
		t.Fatalf("cost header %+v", c)
	}
	if c.Strategy != sp.Strategy() {
		t.Fatalf("cost strategy %v != plan strategy %v", c.Strategy, sp.Strategy())
	}
	if c.PerIPUBytes <= 0 || c.LatencySecondsPerBatch <= 0 {
		t.Fatalf("degenerate cost %+v", c)
	}
	// The butterfly's global stages must be visible as exchange steps.
	found := false
	for _, name := range sp.Steps() {
		if sp.Strategy() == TensorParallel && contains(name, "+exchange") {
			found = true
		}
	}
	if sp.Strategy() == TensorParallel && !found {
		t.Error("tensor-parallel butterfly plan lists no exchange stages")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestEstimateSpecBytes checks the spec-level sizing used by the
// memory-wall sweep: splittable weights divide S ways; an unsplittable
// model pipelines and can never drop below its largest single layer.
func TestEstimateSpecBytes(t *testing.T) {
	topo := DefaultTopology(64)
	const n, batch = 1 << 14, 64
	dense := []SpecLayer{
		{OutW: n, WeightBytes: 4 * n * n, Splittable: true},
		{OutW: n, Splittable: true},
		{OutW: 10, WeightBytes: 4 * n * 10, Splittable: true},
	}
	one := EstimateSpecBytes(dense, batch, 1, topo)
	four := EstimateSpecBytes(dense, batch, 4, topo)
	if four >= one/2 {
		t.Fatalf("4-shard spec bytes %d not well below 1-shard %d", four, one)
	}
	// Flip the big layer to unsplittable: pipelining cannot shrink it.
	pipe := append([]SpecLayer(nil), dense...)
	pipe[0].Splittable = false
	p4 := EstimateSpecBytes(pipe, batch, 4, topo)
	if p4 < 4*n*n {
		t.Fatalf("pipelined spec bytes %d below the unsplittable layer's own %d", p4, 4*n*n)
	}
	if EstimateSpecBytes(dense, batch, 0, topo) != one {
		t.Fatal("shard count 0 should clamp to 1")
	}
	// Stages pack as the executor packs a lowering's: the first closes once
	// it reaches its fair share (30), so [10, 25, 25] packs as [35, 25].
	small := []SpecLayer{{OutW: 1, WeightBytes: 10}, {OutW: 1, WeightBytes: 25}, {OutW: 1, WeightBytes: 25}}
	heaviest, acts := 35, 3*4 // one row of one column in three arenas
	if got, want := EstimateSpecBytes(small, 1, 2, topo), int(memOverhead*float64(heaviest+acts)); got != want {
		t.Fatalf("[10, 25, 25] on 2 stages: %d bytes, want %d (heaviest stage 35)", got, want)
	}
}

// TestMicroPickEngagesWavefront is the regression for the planner never
// leaving the barrier loop: on a latency-dominated fabric (fixed
// per-message link cost ≫ SHL compute) a model that charges the fixed
// overhead once per micro-batch makes modelled latency grow with m, so
// the auto-pick returns 1 forever. With boundary messages priced as a
// pipelined stream the wavefront must win at the CI reference shape.
func TestMicroPickEngagesWavefront(t *testing.T) {
	topo := DefaultTopology(2)
	_, pl := buildPlan(t, nn.Butterfly, 3)
	for _, batch := range []int{4, testMaxBatch} {
		auto, err := estimateBudgetMicro(pl.Lowering, batch, 2, topo, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		barrier, err := estimateBudgetMicro(pl.Lowering, batch, 2, topo, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if auto.Strategy != Pipeline || barrier.Strategy != Pipeline {
			t.Fatalf("batch %d: strategies %v/%v, want pipeline", batch, auto.Strategy, barrier.Strategy)
		}
		if auto.MicroBatches <= 1 {
			t.Errorf("batch %d: auto pick stayed at the barrier loop (micro=%d)", batch, auto.MicroBatches)
		}
		if auto.LatencySecondsPerBatch >= barrier.LatencySecondsPerBatch {
			t.Errorf("batch %d: wavefront latency %v not below barrier %v",
				batch, auto.LatencySecondsPerBatch, barrier.LatencySecondsPerBatch)
		}
		// Streaming reprices the schedule, not the fabric: total exchange
		// seconds must not balloon with the wavefront width.
		if auto.ExchangeSecondsPerBatch > 1.05*barrier.ExchangeSecondsPerBatch {
			t.Errorf("batch %d: wavefront exchange %v far above barrier %v",
				batch, auto.ExchangeSecondsPerBatch, barrier.ExchangeSecondsPerBatch)
		}
	}
	// A forced width wider than the batch must clamp to the batch.
	forced, err := estimateBudgetMicro(pl.Lowering, 2, 2, topo, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if forced.MicroBatches != 2 {
		t.Errorf("forced micro 64 at batch 2: got %d, want clamp to 2", forced.MicroBatches)
	}
}
