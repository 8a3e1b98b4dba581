package nn

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/tensor"
)

// TestPlanKernelClassification pins the step → kernel-family attribution
// for every Table 4 method: the structured first layer reports its own
// family, the dense classifier head reports matmul.
func TestPlanKernelClassification(t *testing.T) {
	want := map[Method]obs.Kernel{
		Baseline:  obs.KernelMatMul,
		Butterfly: obs.KernelButterfly,
		Fastfood:  obs.KernelFWHT,
		Circulant: obs.KernelFFT,
		LowRank:   obs.KernelLowRank,
		Pixelfly:  obs.KernelBSR,
	}
	const n, classes, maxBatch = 64, 10, 8
	for _, method := range AllMethods {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			net := BuildSHL(method, n, classes, rand.New(rand.NewSource(5)))
			plan, err := net.CompilePlan(maxBatch)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			if got := plan.StepKernel(0); got != want[method] {
				t.Errorf("first step kernel = %s, want %s", got, want[method])
			}
			last := plan.NumSteps() - 1
			if got := plan.StepKernel(last); got != obs.KernelMatMul {
				t.Errorf("classifier head kernel = %s, want matmul", got)
			}
			for i := 0; i < plan.NumSteps(); i++ {
				if plan.StepFlopsPerRow(i) <= 0 {
					t.Errorf("step %d (%s): flops/row = %d, want > 0",
						i, plan.Steps()[i], plan.StepFlopsPerRow(i))
				}
				if plan.StepArenaBytesPerRow(i) <= 0 {
					t.Errorf("step %d (%s): arena bytes/row = %d, want > 0",
						i, plan.Steps()[i], plan.StepArenaBytesPerRow(i))
				}
			}
		})
	}
}

// recordFrame files the plan's last Execute into a kernel sink the way
// the serving layer derives it: one record per step, its per-row figures
// scaled by the batch rows, timed by the frame's step time.
func recordFrame(ks *obs.KernelStats, plan *Plan) {
	f := plan.Frame()
	rows := int64(f.Rows)
	for i := 0; i < f.Steps; i++ {
		ks.Record(plan.StepKernel(i), rows*plan.StepFlopsPerRow(i), rows*plan.StepArenaBytesPerRow(i), f.StepNanos(i))
	}
}

// TestPlanKernelAccounting executes a butterfly plan and checks its
// frame and the kernel totals derived from it against the plan's own
// per-row figures: every batch's frame carries its rows and a positive
// time per step laid back to back, flops and bytes match rows × per-row
// exactly, and every executed step lands in its attributed family.
func TestPlanKernelAccounting(t *testing.T) {
	const n, classes, maxBatch = 64, 10, 8
	net := BuildSHL(Butterfly, n, classes, rand.New(rand.NewSource(9)))
	plan, err := net.CompilePlan(maxBatch)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	ks := obs.NewKernelStats()

	rows := int64(0)
	rng := rand.New(rand.NewSource(10))
	for _, batch := range []int{1, 3, maxBatch} {
		x := tensor.New(batch, n)
		x.FillRandom(rng, 1)
		if _, err := plan.Execute(x); err != nil {
			t.Fatalf("Execute: %v", err)
		}
		f := plan.Frame()
		if f.Rows != batch || f.Micro != 1 || f.IPUs != 1 || f.Steps != plan.NumSteps() {
			t.Fatalf("frame = %d rows × %d micro on %d IPUs over %d steps, want %d × 1 on 1 over %d",
				f.Rows, f.Micro, f.IPUs, f.Steps, batch, plan.NumSteps())
		}
		var off int64
		for i := 0; i < f.Steps; i++ {
			c := f.Cell(i, 0, 0)
			if c.Start != off || c.Dur <= 0 || f.StepNanos(i) != c.Dur {
				t.Fatalf("batch %d step %d: cell %+v, want a positive span at %dns", batch, i, *c, off)
			}
			off += c.Dur
		}
		if f.Wall != off {
			t.Fatalf("batch %d: wall %dns, want the summed steps %dns", batch, f.Wall, off)
		}
		recordFrame(ks, plan)
		rows += int64(batch)
	}

	wantFlops := map[string]int64{}
	wantBytes := map[string]int64{}
	wantCalls := map[string]int64{}
	for i := 0; i < plan.NumSteps(); i++ {
		k := plan.StepKernel(i).String()
		wantFlops[k] += rows * plan.StepFlopsPerRow(i)
		wantBytes[k] += rows * plan.StepArenaBytesPerRow(i)
		wantCalls[k] += 3 // one record per step per Execute
	}

	snaps := ks.Snapshot()
	if len(snaps) != len(wantFlops) {
		t.Fatalf("sink families = %d, want %d (%v)", len(snaps), len(wantFlops), snaps)
	}
	for _, s := range snaps {
		if s.Flops != wantFlops[s.Kernel] {
			t.Errorf("%s flops = %d, want %d", s.Kernel, s.Flops, wantFlops[s.Kernel])
		}
		if s.Bytes != wantBytes[s.Kernel] {
			t.Errorf("%s bytes = %d, want %d", s.Kernel, s.Bytes, wantBytes[s.Kernel])
		}
		if s.Calls != wantCalls[s.Kernel] {
			t.Errorf("%s calls = %d, want %d", s.Kernel, s.Calls, wantCalls[s.Kernel])
		}
		if s.Nanos <= 0 {
			t.Errorf("%s nanos = %d, want > 0", s.Kernel, s.Nanos)
		}
	}
}

// TestPlanKernelStatsAllocFree pins the accounting overhead contract:
// steady-state Execute plus deriving its frame — kernel records into a
// sink and a timeline on a recorder that samples every batch — performs
// zero heap allocations.
func TestPlanKernelStatsAllocFree(t *testing.T) {
	const n, classes, maxBatch = 64, 10, 8
	net := BuildSHL(Butterfly, n, classes, rand.New(rand.NewSource(17)))
	plan, err := net.CompilePlan(maxBatch)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	ks := obs.NewKernelStats()
	rec := timeline.NewRecorder(1, 2)
	x := tensor.New(maxBatch, n)
	x.FillRandom(rand.New(rand.NewSource(18)), 1)
	run := func() {
		if _, err := plan.Execute(x); err != nil {
			t.Fatalf("Execute: %v", err)
		}
		recordFrame(ks, plan)
		rec.Record(plan.Frame())
	}
	for i := 0; i < 4; i++ {
		run() // fill the recorder's ring
	}
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("Execute with kernel accounting and timeline allocates %.1f objects per run, want 0", avg)
	}
}
