// Command benchgate is the CI perf gate. It has two modes, usable
// together:
//
// Snapshot mode diffs a freshly generated BENCH_serve.json (ipuserve
// -loadgen -benchout) against the committed record and fails when
// throughput drops, allocations per request grow, a per-kernel GFLOP/s
// rate falls (or a kernel vanishes from the table), or a plan step's
// cost-model drift ratio moves further than -drift-tol in log space:
//
//	benchgate -old BENCH_serve.json -new /tmp/fresh.json -tol 0.2 -drift-tol 1.0
//
// History mode reads the append-only BENCH_history.jsonl (one record per
// loadgen run, ipuserve -loadgen -history) and runs step detection over
// each model's throughput trajectory: at every split point it compares
// the windowed mean before against the windowed mean after, and fails
// when the worst drop exceeds -step-tol. This catches gradual
// regressions — e.g. three consecutive 5% losses compound to ~14%,
// inside a 20% snapshot tolerance but far outside a 5% trajectory step:
//
//	benchgate -history BENCH_history.jsonl -window 3 -step-tol 0.05
//	benchgate -history BENCH_history.jsonl -history-lint   # well-formedness only
//
// Snapshot mode also gates the BSP phase-utilization blocks when both
// records carry them: a model's pipeline bubble fraction or exchange
// share may not grow by more than -phase-tol (absolute share points)
// over the committed record. Records predating the phase flight
// recorder simply contribute no phase rows.
//
// Timeline mode lints a Chrome trace-event dump written by
// ipuserve -loadgen -timeline-out: the file must parse, contain only
// complete/metadata events, and every (process, track) must be
// monotonic and non-overlapping:
//
//	benchgate -timeline /tmp/timeline.json
//
// Snapshot records are matched on (model, shards); models present only
// in the fresh file are reported but not gated, models missing from it
// fail.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/obs/timeline"
)

// record mirrors the per-model block of BENCH_serve.json (only the gated
// and identifying fields).
type record struct {
	Model         string  `json:"model"`
	Shards        int     `json:"shards"`
	ThroughputRPS float64 `json:"throughput_rps"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

// fusionRecord mirrors the per-model fusion probe: the plan-level fusion
// pass's modelled arena traffic and fused-step count. Gated absolutely —
// these are deterministic compile-time properties, so any growth means the
// fusion pass stopped firing somewhere.
type fusionRecord struct {
	Model               string `json:"model"`
	Steps               int    `json:"plan_steps"`
	FusedSteps          int    `json:"fused_steps"`
	TrafficBytes        int    `json:"traffic_bytes"`
	TrafficBytesUnfused int    `json:"traffic_bytes_unfused"`
}

// kernelRecord mirrors one row of the per-kernel accounting table:
// achieved GFLOP/s per kernel family over the loadgen run. Gated like
// throughput — a kernel present in the committed record must stay present
// and within tolerance of its recorded rate.
type kernelRecord struct {
	Kernel       string  `json:"kernel"`
	Calls        int64   `json:"calls"`
	GFlopsPerSec float64 `json:"gflops_per_sec"`
}

// driftRecord mirrors one cost-model drift row: measured host seconds per
// row over modelled IPU seconds per row for one plan step. The absolute
// ratio mixes host and modelled-device scales, so the gate compares its
// movement between the committed and fresh records in log space rather
// than gating the level.
type driftRecord struct {
	Model  string  `json:"model"`
	Shards int     `json:"shards"`
	Step   string  `json:"step"`
	Ratio  float64 `json:"ratio"`
}

// phaseRecord mirrors one model's BSP phase-utilization block from the
// flight recorder: shares of sampled per-IPU wall spent in each phase.
// Shares are dimensionless and machine-independent, so unlike raw
// throughput they are gated on absolute movement.
type phaseRecord struct {
	Model          string  `json:"model"`
	Shards         int     `json:"shards"`
	Strategy       string  `json:"strategy,omitempty"`
	SampledBatches int64   `json:"sampled_batches"`
	ComputeShare   float64 `json:"compute_share"`
	ExchangeShare  float64 `json:"exchange_share"`
	BarrierShare   float64 `json:"barrier_share"`
	BubbleFraction float64 `json:"bubble_fraction"`
}

type benchFile struct {
	Models       []record       `json:"models"`
	FusionProbes []fusionRecord `json:"fusion_probes"`
	Kernels      []kernelRecord `json:"kernels"`
	Drift        []driftRecord  `json:"drift"`
	Phases       []phaseRecord  `json:"phases,omitempty"`
}

// historySchema is the JSONL history record version this gate reads;
// ipuserve stamps it on every appended run.
const historySchema = 1

// historyRecord is one line of BENCH_history.jsonl — one loadgen run.
// Only the identifying and gated fields are decoded; ipuserve writes a
// superset.
type historyRecord struct {
	Schema          int           `json:"schema"`
	GeneratedAt     string        `json:"generated_at"`
	Commit          string        `json:"commit,omitempty"`
	N               int           `json:"n"`
	DurationSeconds float64       `json:"duration_s_per_model"`
	Models          []record      `json:"models"`
	Phases          []phaseRecord `json:"phases,omitempty"`
}

// loadHistory parses the append-only JSONL history, rejecting malformed
// lines with their line number so a corrupted append fails loudly.
func loadHistory(path string) ([]historyRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []historyRecord
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var h historyRecord
		if err := json.Unmarshal(line, &h); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		if h.Schema != historySchema {
			return nil, fmt.Errorf("%s:%d: schema %d, want %d", path, i+1, h.Schema, historySchema)
		}
		if len(h.Models) == 0 {
			return nil, fmt.Errorf("%s:%d: record has no models", path, i+1)
		}
		runs = append(runs, h)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no history records", path)
	}
	return runs, nil
}

// historySeries pivots the runs into one throughput series per
// (model, shards) key, in run order. Keys absent from a run simply skip
// that run (a model added later starts its series there).
func historySeries(runs []historyRecord) map[string][]float64 {
	series := map[string][]float64{}
	for _, h := range runs {
		for _, r := range h.Models {
			series[key(r)] = append(series[key(r)], r.ThroughputRPS)
		}
	}
	return series
}

// worstStep scans every split point of the series, comparing the mean of
// up to w runs before against the mean of up to w runs after, and
// returns the largest relative drop and the split index it occurred at
// (-1 when the series is too short to split). Windowed means smooth
// single-run jitter while still localizing where a trajectory stepped
// down.
func worstStep(series []float64, w int) (drop float64, at int) {
	at = -1
	if len(series) < 2 {
		return 0, at
	}
	if half := len(series) / 2; w > half {
		w = half
	}
	if w < 1 {
		w = 1
	}
	for i := w; i+w <= len(series); i++ {
		d := rel(mean(series[i-w:i]), mean(series[i:i+w]))
		if at == -1 || d > drop {
			drop, at = d, i
		}
	}
	return drop, at
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runHistory validates the JSONL history and (unless lintOnly) gates the
// per-model throughput trajectories on step detection. Series too short
// for the configured window are reported explicitly — "insufficient runs"
// rather than a silent pass — so a truncated history is visible in the CI
// log. Returns whether the gate failed.
func runHistory(w io.Writer, path string, window int, stepTol float64, lintOnly bool) bool {
	runs, err := loadHistory(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return true
	}
	fmt.Fprintf(w, "history: %d run(s) in %s\n", len(runs), path)
	if lintOnly {
		fmt.Fprintln(w, "history well-formed (lint only, trajectory not gated)")
		return false
	}
	series := historySeries(runs)
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failed := false
	for _, k := range keys {
		s := series[k]
		drop, at := worstStep(s, window)
		if at == -1 {
			fmt.Fprintf(w, "skip %-22s insufficient runs (%d < 2), step detection not possible\n", k, len(s))
			continue
		}
		status := "ok  "
		if drop > stepTol {
			status = "FAIL"
			failed = true
		}
		note := ""
		if len(s) < 2*window {
			note = fmt.Sprintf("  [insufficient runs for window %d: detecting at window %d]", window, max(len(s)/2, 1))
		}
		fmt.Fprintf(w, "%s %-22s %d runs, latest %8.1f req/s, worst step %+.1f%% at run %d%s\n",
			status, k, len(s), s[len(s)-1], -100*drop, at+1, note)
	}
	if failed {
		fmt.Fprintf(w, "\nhistory gate FAILED (step tolerance %.0f%%) — the throughput trajectory stepped down\n", stepTol*100)
	}
	return failed
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *benchFile) byModel() map[string]record {
	out := make(map[string]record, len(f.Models))
	for _, r := range f.Models {
		out[key(r)] = r
	}
	return out
}

func (f *benchFile) byFusion() map[string]fusionRecord {
	out := make(map[string]fusionRecord, len(f.FusionProbes))
	for _, r := range f.FusionProbes {
		out[r.Model] = r
	}
	return out
}

func (f *benchFile) byKernel() map[string]kernelRecord {
	out := make(map[string]kernelRecord, len(f.Kernels))
	for _, r := range f.Kernels {
		out[r.Kernel] = r
	}
	return out
}

// driftKey identifies a drift row across records: same model, shard count
// and plan step.
func driftKey(d driftRecord) string {
	return fmt.Sprintf("%s/s%d/%s", d.Model, d.Shards, d.Step)
}

func (f *benchFile) byDrift() map[string]driftRecord {
	out := make(map[string]driftRecord, len(f.Drift))
	for _, r := range f.Drift {
		out[driftKey(r)] = r
	}
	return out
}

// phaseKey identifies a phase row across records: same model and shard
// count.
func phaseKey(p phaseRecord) string {
	shards := p.Shards
	if shards < 1 {
		shards = 1
	}
	return fmt.Sprintf("%s/s%d", p.Model, shards)
}

func (f *benchFile) byPhase() map[string]phaseRecord {
	out := make(map[string]phaseRecord, len(f.Phases))
	for _, r := range f.Phases {
		out[phaseKey(r)] = r
	}
	return out
}

func key(r record) string {
	shards := r.Shards
	if shards < 1 {
		shards = 1 // records predating the sharding field
	}
	return fmt.Sprintf("%s/s%d", r.Model, shards)
}

func main() {
	oldPath := flag.String("old", "BENCH_serve.json", "committed perf record")
	newPath := flag.String("new", "", "freshly generated perf record (enables snapshot mode)")
	tol := flag.Float64("tol", 0.2, "snapshot: allowed relative regression (0.2 = 20%)")
	allocSlack := flag.Float64("alloc-slack", 50,
		"absolute allocs/op increase always tolerated: pricing a batch bucket first met inside the measurement window (Model.ModelledCost: IPU compile, simulation and probe plan, 19k-40k allocations) steps the per-op figure by tens of allocs; a real loss of the compiled-plan path costs hundreds")
	history := flag.String("history", "", "append-only JSONL perf history (enables trajectory mode)")
	window := flag.Int("window", 3, "history: runs averaged on each side of a split point")
	stepTol := flag.Float64("step-tol", 0.05, "history: relative windowed-mean throughput drop that fails the gate")
	histLint := flag.Bool("history-lint", false, "history: validate JSONL well-formedness only, don't gate the trajectory")
	driftTol := flag.Float64("drift-tol", 1.0,
		"snapshot: allowed log-space movement of a step's cost-model drift ratio (1.0 = the measured/modelled ratio may move by up to 2x either way between records)")
	kernelTol := flag.Float64("kernel-tol", 0.2,
		"snapshot: allowed relative per-kernel GFLOP/s drop (a vanished kernel always fails); widen when comparing records across machines, since raw kernel rates track machine speed directly")
	phaseTol := flag.Float64("phase-tol", 0.05,
		"snapshot: allowed absolute growth of a model's bubble fraction or exchange share over the committed phases block (0.05 = five share points); phases are machine-independent ratios, so the gate is absolute rather than relative")
	tracePath := flag.String("timeline", "", "Chrome trace-event JSON dump to lint (enables timeline mode)")
	flag.Parse()
	if *newPath == "" && *history == "" && *tracePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -new, -history and/or -timeline is required")
		os.Exit(2)
	}
	failed := false
	if *history != "" {
		failed = runHistory(os.Stdout, *history, *window, *stepTol, *histLint) || failed
	}
	if *newPath != "" {
		failed = runSnapshot(*oldPath, *newPath, *tol, *allocSlack, *kernelTol, *driftTol, *phaseTol) || failed
	}
	if *tracePath != "" {
		failed = runTimeline(os.Stdout, *tracePath) || failed
	}
	if failed {
		os.Exit(1)
	}
}

// runTimeline lints a Chrome trace-event dump: it must parse as
// trace-event JSON, hold only complete ("X") and metadata ("M") events,
// and every (process, track) pair's complete events must be monotonic
// and non-overlapping — overlap on a track means the recorder attributed
// two phases to the same IPU at once, which Perfetto would render as
// nested spans and which is physically meaningless for BSP.
func runTimeline(w io.Writer, path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return true
	}
	n, err := timeline.LintChrome(data)
	if err != nil {
		fmt.Fprintf(w, "FAIL timeline %s: %v\n", path, err)
		return true
	}
	fmt.Fprintf(w, "ok   timeline %s: %d complete event(s), tracks monotonic and non-overlapping\n", path, n)
	return false
}

// runSnapshot diffs the fresh perf record against the committed one and
// reports whether the gate failed.
func runSnapshot(oldPath, newPath string, tol, allocSlack, kernelTol, driftTol, phaseTol float64) bool {
	oldFile, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return true
	}
	newFile, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return true
	}
	oldRecs, newRecs := oldFile.byModel(), newFile.byModel()
	oldFus, newFus := oldFile.byFusion(), newFile.byFusion()

	failed := false
	for k, o := range oldRecs {
		n, ok := newRecs[k]
		if !ok {
			fmt.Printf("FAIL %-22s missing from the fresh record\n", k)
			failed = true
			continue
		}
		thrDrop := rel(o.ThroughputRPS, n.ThroughputRPS)
		allocGrow := -rel(o.AllocsPerOp, n.AllocsPerOp)
		status := "ok  "
		if thrDrop > tol {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-22s throughput %8.1f -> %8.1f req/s (%+.1f%%)\n",
			status, k, o.ThroughputRPS, n.ThroughputRPS,
			100*(n.ThroughputRPS-o.ThroughputRPS)/o.ThroughputRPS)
		status = "ok  "
		if allocGrow > tol && n.AllocsPerOp-o.AllocsPerOp > allocSlack {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-22s allocs/op  %8.1f -> %8.1f       (%+.1f%%)\n",
			status, k, o.AllocsPerOp, n.AllocsPerOp,
			100*(n.AllocsPerOp-o.AllocsPerOp)/max(o.AllocsPerOp, 1e-9))
	}
	for k := range newRecs {
		if _, ok := oldRecs[k]; !ok {
			fmt.Printf("new  %-22s (no committed baseline, not gated)\n", k)
		}
	}
	// Fusion probes are compile-time deterministic: modelled arena traffic
	// must not grow and fused-step coverage must not shrink, at all.
	for m, o := range oldFus {
		n, ok := newFus[m]
		if !ok {
			fmt.Printf("FAIL %-22s fusion probe missing from the fresh record\n", m)
			failed = true
			continue
		}
		status := "ok  "
		if n.TrafficBytes > o.TrafficBytes || n.FusedSteps < o.FusedSteps {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-22s fusion     %8d -> %8d traffic B   (%d/%d steps fused)\n",
			status, m, o.TrafficBytes, n.TrafficBytes, n.FusedSteps, n.Steps)
	}
	for m := range newFus {
		if _, ok := oldFus[m]; !ok {
			fmt.Printf("new  %-22s fusion probe (no committed baseline, not gated)\n", m)
		}
	}
	failed = gateKernels(oldFile.byKernel(), newFile.byKernel(), kernelTol) || failed
	failed = gateDrift(oldFile.byDrift(), newFile.byDrift(), driftTol) || failed
	failed = gatePhases(oldFile.byPhase(), newFile.byPhase(), phaseTol) || failed
	if failed {
		fmt.Printf("\nperf gate FAILED (tolerance %.0f%%) — if intentional, regenerate BENCH_serve.json\n", tol*100)
		return true
	}
	fmt.Printf("\nperf gate passed (tolerance %.0f%%)\n", tol*100)
	return false
}

// gateKernels diffs the per-kernel GFLOP/s tables: a kernel in the
// committed record must still appear in the fresh one (a vanished kernel
// means its accounting hook was lost, or a whole code path stopped
// executing) and its rate must not fall by more than tol.
func gateKernels(oldK, newK map[string]kernelRecord, tol float64) bool {
	failed := false
	keys := make([]string, 0, len(oldK))
	for k := range oldK {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o := oldK[k]
		n, ok := newK[k]
		if !ok {
			fmt.Printf("FAIL kernel %-15s missing from the fresh record (accounting hook lost?)\n", k)
			failed = true
			continue
		}
		drop := rel(o.GFlopsPerSec, n.GFlopsPerSec)
		status := "ok  "
		if drop > tol {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s kernel %-15s %8.2f -> %8.2f GFLOP/s (%+.1f%%)\n",
			status, k, o.GFlopsPerSec, n.GFlopsPerSec, -100*drop)
	}
	for k := range newK {
		if _, ok := oldK[k]; !ok {
			fmt.Printf("new  kernel %-15s (no committed baseline, not gated)\n", k)
		}
	}
	return failed
}

// gateDrift compares each step's cost-model drift ratio between records.
// The ratio's level is meaningless across machines (host wall-clock over
// modelled IPU time), but on the same runner its movement is the signal:
// a step whose ratio wanders further from where it was means either the
// implementation or the cost model changed speed without the other. The
// comparison is symmetric in log space — moving from 10x to 25x is as bad
// as from 10x to 4x.
func gateDrift(oldD, newD map[string]driftRecord, driftTol float64) bool {
	failed := false
	keys := make([]string, 0, len(oldD))
	for k := range oldD {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o := oldD[k]
		n, ok := newD[k]
		if !ok || o.Ratio <= 0 || n.Ratio <= 0 {
			// Plan steps legitimately appear and vanish as compilation
			// evolves; only matched, populated rows are comparable.
			continue
		}
		move := math.Abs(math.Log(n.Ratio / o.Ratio))
		status := "ok  "
		if move > driftTol {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s drift  %-38s ratio %9.2f -> %9.2f (%.2f in log space)\n",
			status, k, o.Ratio, n.Ratio, move)
	}
	return failed
}

// gatePhases compares each model's BSP phase block between records:
// bubble fraction and exchange share may not grow by more than phaseTol
// in absolute share points. Only growth is gated — a shrinking bubble or
// cheaper exchange is the goal, not a regression — and only matched rows
// are compared, so records predating the flight recorder (no phases
// block) gate nothing.
func gatePhases(oldP, newP map[string]phaseRecord, phaseTol float64) bool {
	failed := false
	keys := make([]string, 0, len(oldP))
	for k := range oldP {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o := oldP[k]
		n, ok := newP[k]
		if !ok {
			fmt.Printf("FAIL %-22s phases block missing from the fresh record\n", k)
			failed = true
			continue
		}
		check := func(name string, oldV, newV float64) {
			status := "ok  "
			if newV > oldV+phaseTol {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("%s %-22s %-15s %8.3f -> %8.3f (%+.3f)\n",
				status, k, name, oldV, newV, newV-oldV)
		}
		check("bubble fraction", o.BubbleFraction, n.BubbleFraction)
		check("exchange share", o.ExchangeShare, n.ExchangeShare)
	}
	for k := range newP {
		if _, ok := oldP[k]; !ok {
			fmt.Printf("new  %-22s phases block (no committed baseline, not gated)\n", k)
		}
	}
	return failed
}

// rel returns how far below base the candidate fell as a fraction of
// base (negate for growth); non-positive baselines gate nothing.
func rel(base, candidate float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - candidate) / base
}
