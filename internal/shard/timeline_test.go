package shard

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs/timeline"
	"repro/internal/tensor"
)

// executeSampled runs one batch through sp and records its frame with a
// sample-every-batch recorder described by the plan's cost model,
// returning the derived timeline.
func executeSampled(t *testing.T, sp *ShardedPlan, rec *timeline.Recorder) timeline.BatchRecord {
	t.Helper()
	x := tensor.New(testMaxBatch, testN)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	if _, err := sp.Execute(x); err != nil {
		t.Fatal(err)
	}
	comp, exch := sp.ModelledPhaseSeconds()
	rec.SetMeta(&timeline.Meta{Steps: sp.Steps(), ComputeSecPerRow: comp, ExchangeSecPerRow: exch})
	rec.Record(sp.Frame())
	snap := rec.Snapshot()
	if len(snap) == 0 {
		t.Fatal("recorder at sampleEvery=1 captured no batch")
	}
	return snap[len(snap)-1]
}

// checkTiles asserts each IPU's events tile [0, wall] in order.
func checkTiles(t *testing.T, b timeline.BatchRecord) {
	t.Helper()
	end := make([]int64, b.Tracks)
	for _, ev := range b.Events {
		if ev.StartNanos != end[ev.IPU] {
			t.Fatalf("event %+v starts at %dns, ipu%d's previous event ends at %dns", ev, ev.StartNanos, ev.IPU, end[ev.IPU])
		}
		end[ev.IPU] += ev.DurNanos
	}
	for k, e := range end {
		if e != b.WallNanos {
			t.Fatalf("ipu%d events end at %dns, batch wall is %dns", k, e, b.WallNanos)
		}
	}
}

// TestTimelineReconcilesWithMeasuredClocks asserts the derived timeline
// agrees with the frame it came from: per-IPU compute event sums equal
// the frame's per-IPU compute exactly (both read the same clock reads),
// and each IPU's events tile the measured batch wall. At 4 shards the
// 10-class head's panel-aligned windows leave shards 0 and 2 idle on the
// head's step, which must still tile.
func TestTimelineReconcilesWithMeasuredClocks(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 31)
	for _, c := range []struct {
		strat  Strategy
		shards int
	}{{TensorParallel, 2}, {Pipeline, 2}, {TensorParallel, 4}} {
		strat := c.strat
		sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(4), c.shards, strat, 1)
		if err != nil {
			t.Fatalf("CompileMicro(%v, %d): %v", strat, c.shards, err)
		}
		rec := timeline.NewRecorder(1, 2)
		b := executeSampled(t, sp, rec)

		if b.Tracks != c.shards || b.Steps != len(sp.Steps()) || b.WallNanos != sp.Frame().Wall {
			t.Fatalf("%v: batch is %d tracks × %d steps over %dns, want %d × %d over %dns",
				strat, b.Tracks, b.Steps, b.WallNanos, c.shards, len(sp.Steps()), sp.Frame().Wall)
		}
		checkTiles(t, b)
		computeByIPU := make([]int64, b.Tracks)
		for _, ev := range b.Events {
			if ev.Phase == timeline.Compute {
				computeByIPU[ev.IPU] += ev.DurNanos
			}
		}
		for k := range computeByIPU {
			if want := sp.Frame().ComputeNanos(k); computeByIPU[k] != want {
				t.Errorf("%v: ipu%d compute events sum to %dns, the frame says %dns",
					strat, k, computeByIPU[k], want)
			}
		}
		sp.Close()
	}
}

// TestTimelineBubblesOnlyUnderPipeline asserts the acceptance contract
// for the bubble phase: under the tensor-parallel barrier loop every
// shard wakes on every micro-step, and one whose window rounds to nothing
// waits out the step at the barrier, so its timeline has no bubbles; a
// pipeline stage idles before its first input and after its last output,
// so a two-stage timeline shows exactly one fill and one drain bubble.
func TestTimelineBubblesOnlyUnderPipeline(t *testing.T) {
	_, pl := buildPlan(t, nn.Baseline, 13)

	tp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(4), 2, TensorParallel, 1)
	if err != nil {
		t.Fatal(err)
	}
	tpRec := timeline.NewRecorder(1, 2)
	b := executeSampled(t, tp, tpRec)
	for _, ev := range b.Events {
		if ev.Phase == timeline.Bubble {
			t.Fatalf("tensor-parallel timeline recorded a bubble: %+v", ev)
		}
	}
	if f := tpRec.BubbleFraction(); f != 0 {
		t.Fatalf("tensor-parallel bubble fraction = %g, want 0", f)
	}
	tp.Close()

	pp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(4), 2, Pipeline, 1)
	if err != nil {
		t.Fatal(err)
	}
	ppRec := timeline.NewRecorder(1, 2)
	b = executeSampled(t, pp, ppRec)
	var fills, drains int
	for _, ev := range b.Events {
		if ev.Phase != timeline.Bubble {
			continue
		}
		if ev.IPU == 1 && ev.StartNanos == 0 {
			fills++
		} else if ev.IPU == 0 && ev.StartNanos+ev.DurNanos == b.WallNanos {
			drains++
		} else {
			t.Fatalf("pipeline bubble %+v is neither stage 1's fill nor stage 0's drain", ev)
		}
	}
	if fills != 1 || drains != 1 {
		t.Fatalf("pipeline timeline recorded %d fill and %d drain bubbles, want 1 and 1", fills, drains)
	}
	if f := ppRec.BubbleFraction(); f <= 0 {
		t.Fatalf("pipeline bubble fraction = %g, want > 0", f)
	}
	pp.Close()
}

// TestWavefrontTimeline pins the wavefront's derived timeline: a
// sampled batch carries the micro dimension, every (step, micro-batch)
// compute span lands on the owning stage's track and sums to the frame's
// per-IPU compute, and the only bubbles are stage 1's fill and stage 0's
// drain.
func TestWavefrontTimeline(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 31)
	sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(2), 2, Pipeline, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	rec := timeline.NewRecorder(1, 2)
	b := executeSampled(t, sp, rec)

	if b.Micro != 4 {
		t.Fatalf("batch recorded micro=%d, want 4", b.Micro)
	}
	if b.Tracks != 2 {
		t.Fatalf("batch recorded %d tracks, want 2", b.Tracks)
	}
	checkTiles(t, b)
	computeByIPU := make([]int64, b.Tracks)
	computeCells := map[[2]int32]bool{}
	bubbles := 0
	for _, ev := range b.Events {
		switch ev.Phase {
		case timeline.Compute:
			computeByIPU[ev.IPU] += ev.DurNanos
			computeCells[[2]int32{ev.Step, ev.MB}] = true
		case timeline.Bubble:
			bubbles++
		}
	}
	for k := range computeByIPU {
		if want := sp.Frame().ComputeNanos(k); computeByIPU[k] != want {
			t.Errorf("ipu%d compute events sum to %dns, the frame says %dns", k, computeByIPU[k], want)
		}
	}
	// Every step must run every micro-batch exactly once.
	if want := len(sp.Steps()) * 4; len(computeCells) != want {
		t.Errorf("recorded %d (step, mb) compute cells, want %d", len(computeCells), want)
	}
	if bubbles != 2 {
		t.Errorf("wavefront recorded %d bubble events, want 2 (fill + drain)", bubbles)
	}
}

// TestShardedTimelineAllocFree extends the zero-alloc steady-state
// contract to a worst-case recorder: sampling every batch, with pprof
// labels pinned, Execute plus deriving its timeline still allocates
// nothing after warm-up.
func TestShardedTimelineAllocFree(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 17)
	for _, strat := range []Strategy{TensorParallel, Pipeline} {
		sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(4), 2, strat, 1)
		if err != nil {
			t.Fatal(err)
		}
		rec := timeline.NewRecorder(1, 2)
		sp.SetPprofLabels(t.Context())
		x := tensor.New(testMaxBatch, testN)
		x.FillRandom(rand.New(rand.NewSource(18)), 1)
		run := func() {
			if _, err := sp.Execute(x); err != nil {
				t.Fatal(err)
			}
			rec.Record(sp.Frame())
		}
		// Warm: fill the ring to steady state.
		for i := 0; i < 4; i++ {
			run()
		}
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("%v: Execute+Record with labels allocates %.1f objects per run, want 0", strat, avg)
		}
		if tot := rec.Totals(); tot.Batches < 20 {
			t.Fatalf("%v: recorder only saw %d batches — sampling did not run", strat, tot.Batches)
		}
		sp.Close()
	}
}

// TestPlanTimeline covers the single-IPU executor: nn.Plan lays its
// measured step clocks back-to-back on one compute track.
func TestPlanTimeline(t *testing.T) {
	_, pl := buildPlan(t, nn.Baseline, 23)
	rec := timeline.NewRecorder(1, 2)
	x := tensor.New(testMaxBatch, testN)
	x.FillRandom(rand.New(rand.NewSource(24)), 1)
	if _, err := pl.Execute(x); err != nil {
		t.Fatal(err)
	}
	rec.Record(pl.Frame())
	snap := rec.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d batches, want 1", len(snap))
	}
	b := snap[0]
	if b.Tracks != 1 || b.Steps != pl.NumSteps() || len(b.Events) != pl.NumSteps() {
		t.Fatalf("batch is %d tracks × %d steps with %d events, want 1 × %d with %d",
			b.Tracks, b.Steps, len(b.Events), pl.NumSteps(), pl.NumSteps())
	}
	var off, total int64
	for i, ev := range b.Events {
		if ev.Phase != timeline.Compute || ev.IPU != 0 {
			t.Fatalf("event %d: %+v, want compute on ipu0", i, ev)
		}
		if ev.StartNanos != off {
			t.Fatalf("event %d starts at %dns, want back-to-back at %dns", i, ev.StartNanos, off)
		}
		if want := pl.Frame().StepNanos(i); ev.DurNanos != want {
			t.Fatalf("event %d duration %dns, want the frame's step time %dns", i, ev.DurNanos, want)
		}
		off += ev.DurNanos
		total += ev.DurNanos
	}
	if b.WallNanos != total {
		t.Fatalf("batch wall %dns, want summed step clocks %dns", b.WallNanos, total)
	}
}
