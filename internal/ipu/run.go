package ipu

import "fmt"

// RunOptions control how a workload is executed.
type RunOptions struct {
	// PopTorch runs the program the way the paper measures PyTorch models
	// on the IPU: host transfers for every non-resident tensor, a fixed
	// per-run dispatch cost, a per-compute-set framework dispatch cost,
	// and framework-generated (rather than hand-planned) AMP graphs.
	PopTorch bool
	// DeviceLoop models the paper's layer microbenchmarks (Fig. 6): the
	// 1000-iteration measurement loop is compiled onto the device, so the
	// per-compute-set dispatch cost amortizes to a small residual. Table
	// 4's training loop cannot amortize (fresh data every step), so it
	// runs with DeviceLoop off.
	DeviceLoop bool
}

// PopTorch calibration constants (documented in DESIGN.md §2): the
// effective host link bandwidth PopTorch sustains, the per-run and
// per-compute-set dispatch overheads, and the efficiency of
// framework-generated AMP plans relative to hand-written poplin. They are
// fitted to Table 2's PopTorch column (1677 GFLOP/s at N=2048) and Fig 6's
// IPU panel (break-even at N≈2^10, worst butterfly degradation ≈1.4×).
const (
	popTorchHostBandwidth     = 5e9
	popTorchFixedSec          = 30e-6
	popTorchDispatchSec       = 3e-6
	popTorchLoopedDispatchSec = 0.3e-6
	popTorchAMPEfficiency     = 0.15
)

// RunResult bundles compilation and timing of one workload.
type RunResult struct {
	Workload *Workload
	Compiled *Compiled
	Report   ExecReport
	Seconds  float64
}

// GFlops returns executed GFLOP/s.
func (r RunResult) GFlops() float64 { return r.Workload.Flops / r.Seconds / 1e9 }

// DenseEquivGFlops returns dense-equivalent GFLOP/s (Table 2's convention
// for sparse workloads, which can exceed device peak).
func (r RunResult) DenseEquivGFlops() float64 {
	return r.Workload.DenseEquivFlops / r.Seconds / 1e9
}

// Run compiles and simulates a workload.
func Run(w *Workload, opts RunOptions) (RunResult, error) {
	compiled, err := Compile(w.Graph)
	if err != nil {
		return RunResult{}, fmt.Errorf("compiling %s: %w", w.Name, err)
	}
	ampScale := 1.0
	if opts.PopTorch {
		ampScale = 1 / popTorchAMPEfficiency
	}
	rep := simulate(compiled, ampScale)
	res := RunResult{Workload: w, Compiled: compiled, Report: rep, Seconds: rep.Seconds()}
	if opts.PopTorch {
		dispatch := popTorchDispatchSec
		if opts.DeviceLoop {
			dispatch = popTorchLoopedDispatchSec
		}
		res.Seconds += w.HostBytes/popTorchHostBandwidth +
			popTorchFixedSec + float64(w.ExecSteps())*dispatch
	}
	return res, nil
}

// ExecSteps counts executed compute-set steps in the workload's program.
func (w *Workload) ExecSteps() int { return len(w.Graph.Program) }

// PopTorchTrainStep composes the model time of one training iteration of a
// PopTorch model: forward + backward ≈ 3× the forward device time of each
// layer, one host transfer of the input batch, the fixed per-run dispatch,
// and the per-compute-set dispatch for 3× the layer compute sets plus
// auxSteps framework steps (activation, loss, optimizer). Table 4's
// training loop streams fresh data every step, so the device-loop
// amortization of Fig. 6 does not apply.
func PopTorchTrainStep(layers []RunResult, hostBytes float64, auxSteps int) float64 {
	sec := hostBytes/popTorchHostBandwidth + popTorchFixedSec
	steps := auxSteps
	for _, l := range layers {
		sec += 3 * l.Report.DeviceSeconds
		steps += 3 * l.Workload.ExecSteps()
	}
	return sec + float64(steps)*popTorchDispatchSec
}
