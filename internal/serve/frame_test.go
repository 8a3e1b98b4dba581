package serve

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// TestObserveExecKeepsDefinitions records one batch on every executor
// shape — nn.Plan, the tensor-parallel barrier loop and the pipeline
// wavefront at 1, 2 and 4 micro-batches — and checks that every view
// observeExec derives from the frame equals the definitions computed by
// hand from its raw cells: a plan step's time is its cell, a barrier-loop
// step's its span, a wavefront step's the sum of its kernel cells, and a
// shard's compute the sum of its cells. Kernel records, drift
// accumulators, step and shard-compute histograms, trace step spans and
// the sampled timeline all carry those numbers, and the whole
// Execute-plus-derive path allocates nothing.
func TestObserveExecKeepsDefinitions(t *testing.T) {
	const rows = 4
	cases := []struct {
		name  string
		ipus  int
		strat shard.Strategy
		micro int
	}{
		{"plan", 1, 0, 0},
		{"tensor-parallel", 2, shard.TensorParallel, 1},
		{"pipeline/M=1", 2, shard.Pipeline, 1},
		{"pipeline/M=2", 2, shard.Pipeline, 2},
		{"pipeline/M=4", 2, shard.Pipeline, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := NewRegistry(Options{NumIPUs: c.ipus, Shards: c.ipus, TimelineSampleEvery: 1, TraceSampleEvery: -1})
			t.Cleanup(reg.Close)
			m, err := reg.Register(ModelSpec{Name: "bf", Method: nn.Butterfly, N: 64, Classes: 10, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			pl, err := m.net.CompilePlan(rows)
			if err != nil {
				t.Fatal(err)
			}
			var ex steppedExecutor = pl
			if c.ipus > 1 {
				sp, err := shard.CompileMicro(pl.Lowering, pl.MaxBatch(), m.topo, c.ipus, c.strat, c.micro)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sp.Close)
				ex = sp
			}
			x := tensor.New(rows, 64)
			x.FillRandom(rand.New(rand.NewSource(4)), 1)
			if _, err := ex.Execute(x); err != nil {
				t.Fatal(err)
			}
			f := ex.Frame()
			if (f.Spans != nil) != (c.strat == shard.TensorParallel && c.ipus > 1) {
				t.Fatalf("frame has spans=%v, want them only under the barrier loop", f.Spans != nil)
			}
			if c.micro > 1 && f.Micro != c.micro {
				t.Fatalf("frame micro = %d, want %d", f.Micro, c.micro)
			}

			// The definitions, by hand from the raw frame.
			step := make([]int64, f.Steps)
			compute := make([]int64, f.IPUs)
			for i := 0; i < f.Steps; i++ {
				for j := 0; j < f.Micro; j++ {
					for k := 0; k < f.IPUs; k++ {
						if f.Owner != nil && f.Owner[i] != k {
							continue
						}
						d := f.Cell(i, j, k).Dur
						compute[k] += d
						step[i] += d
					}
				}
				if f.Spans != nil {
					step[i] = f.Spans[i].Dur
				}
			}
			kernNanos := map[string]int64{}
			kernFlops := map[string]int64{}
			kernCalls := map[string]int64{}
			for i := range step {
				k := ex.StepKernel(i).String()
				kernNanos[k] += step[i]
				kernFlops[k] += rows * ex.StepFlopsPerRow(i)
				kernCalls[k]++
			}

			var info execInfo
			m.observeExec(ex, &info)

			snaps := reg.KernelStats().Snapshot()
			if len(snaps) != len(kernCalls) {
				t.Fatalf("kernel sink has %d families, want %d", len(snaps), len(kernCalls))
			}
			for _, s := range snaps {
				if s.Nanos != kernNanos[s.Kernel] || s.Flops != kernFlops[s.Kernel] || s.Calls != kernCalls[s.Kernel] {
					t.Errorf("kernel %s = %d ns / %d flops / %d calls, want %d / %d / %d", s.Kernel,
						s.Nanos, s.Flops, s.Calls, kernNanos[s.Kernel], kernFlops[s.Kernel], kernCalls[s.Kernel])
				}
			}
			so := m.stepObs.Load()
			for i, want := range step {
				if got := so.measured[i].nanos.Load(); got != want || so.measured[i].rows.Load() != rows {
					t.Errorf("step %d drift = %d ns over %d rows, want %d over %d", i, got, so.measured[i].rows.Load(), want, rows)
				}
				if h := so.hists[i]; observed(h) != 1 || h.Sum() != float64(want)/1e9 {
					t.Errorf("step %d histogram = %d obs summing %g s, want 1 of %g", i, observed(h), h.Sum(), float64(want)/1e9)
				}
			}
			for k, h := range m.mets.shardCompute {
				if observed(h) != 1 || h.Sum() != float64(compute[k])/1e9 {
					t.Errorf("ipu%d compute histogram = %d obs summing %g s, want 1 of %g", k, observed(h), h.Sum(), float64(compute[k])/1e9)
				}
			}
			if c.ipus > 1 && len(m.mets.shardCompute) != c.ipus {
				t.Fatalf("%d shard-compute histograms, want %d", len(m.mets.shardCompute), c.ipus)
			}

			tr := obs.NewTracer(1, 1).Sample("bf")
			m.traceSpans(tr, &response{batch: rows, execStart: tr.Start, nsteps: info.nsteps, stepNanos: info.stepNanos})
			var spans []obs.Span
			for _, sp := range tr.Spans {
				if strings.HasPrefix(sp.Name, "step:") {
					spans = append(spans, sp)
				}
			}
			if len(spans) != len(step) {
				t.Fatalf("trace has %d step spans, want %d", len(spans), len(step))
			}
			var off int64
			for i, sp := range spans {
				if sp.DurNanos != step[i] || sp.StartNanos != off {
					t.Errorf("trace step %d = %d ns at %d, want %d at %d", i, sp.DurNanos, sp.StartNanos, step[i], off)
				}
				off += step[i]
			}

			b := m.Timeline().Snapshot()[0]
			got := make([]int64, b.Tracks)
			end := make([]int64, b.Tracks)
			for _, ev := range b.Events {
				if ev.Phase == timeline.Compute {
					got[ev.IPU] += ev.DurNanos
				}
				end[ev.IPU] += ev.DurNanos
			}
			for k := range compute {
				if got[k] != compute[k] || end[k] != f.Wall {
					t.Errorf("timeline ipu%d: compute %d ns over %d ns, want %d over the %d ns wall", k, got[k], end[k], compute[k], f.Wall)
				}
			}

			run := func() {
				if _, err := ex.Execute(x); err != nil {
					t.Fatal(err)
				}
				m.observeExec(ex, &info)
			}
			for i := 0; i < timelineKeep+1; i++ {
				run() // fill the recorder's ring
			}
			if avg := testing.AllocsPerRun(20, run); avg != 0 {
				t.Errorf("Execute plus derivation allocates %.1f objects per batch, want 0", avg)
			}
		})
	}
}

// observed returns how many values h holds, the _count the Prometheus
// exposition writes.
func observed(h *obs.Histogram) int64 {
	var n int64
	for _, c := range h.BucketCounts() {
		n += c
	}
	return n
}
