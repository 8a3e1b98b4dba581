// Command perfbench is the repository's benchmark. Each run sets a
// workload up through the public APIs of serve, nn and shard, drives its
// load, checks every output, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 9000, "failed": 0,
//	 "metrics": {"p50_ms": {"value": 3.41, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones of a separate traced run. perfbench/README.md explains
// the workloads and which layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one workload run produced.
type report struct {
	attempted, failed int
	metrics           []metric
}

// endToEnd lists the end-to-end metrics every --trace 0 run prints.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "p50_ms", unit: "ms"},
	{name: "heap_live_mb", unit: "MiB"},
	{name: "samples_per_s", unit: "1/s"},
}

// endToEndMetrics attaches units to one value per end-to-end metric, in
// the listed order.
func endToEndMetrics(values map[string]float64) []metric {
	if len(values) != len(endToEnd) {
		panic(fmt.Sprintf("perfbench: %d end-to-end values for %d metrics", len(values), len(endToEnd)))
	}
	out := make([]metric, len(endToEnd))
	for i, m := range endToEnd {
		v, ok := values[m.name]
		if !ok {
			panic("perfbench: no value for end-to-end metric " + m.name)
		}
		out[i] = metric{m.name, v, m.unit}
	}
	return out
}

// perLayer lists the per-layer metrics every --trace 1 run prints. A layer
// a workload does not exercise reads 0.
var perLayer = func() []metric {
	ms := []metric{
		{name: "serve.http.decode_us_p50", unit: "us"},
		{name: "serve.http.write_us_p50", unit: "us"},
		{name: "serve.http.self_share", unit: "ratio"},
		{name: "serve.batcher.queue_wait_ms_p50", unit: "ms"},
		{name: "serve.batcher.queue_wait_ms_p99", unit: "ms"},
		{name: "serve.batcher.avg_batch", unit: "count"},
		{name: "serve.batcher.timeout_flush_share", unit: "ratio"},
		{name: "serve.registry.register_s", unit: "s"},
		{name: "serve.cache.price_s", unit: "s"},
		{name: "serve.cache.load_misses", unit: "count"},
		{name: "serve.cache.hit_rate", unit: "ratio"},
		{name: "ipu.compile_s", unit: "s"},
		{name: "nn.plan.compile_s", unit: "s"},
		{name: "nn.plan.execute_us_p50", unit: "us"},
		{name: "nn.plan.execute_us_per_row", unit: "us"},
	}
	for _, md := range servingWorkloads["sharded_http"].models {
		model := md.name
		for _, s := range []struct{ name, unit string }{
			{"compute_share", "ratio"}, {"exchange_share", "ratio"}, {"barrier_share", "ratio"},
			{"bubble_fraction", "ratio"}, {"micro_batches", "count"},
		} {
			ms = append(ms, metric{name: "shard." + model + "." + s.name, unit: s.unit})
		}
	}
	for _, k := range kernelFamilies {
		ms = append(ms, metric{name: "kernel." + k + ".gflops", unit: "GFLOP/s"},
			metric{name: "kernel." + k + ".us_per_call", unit: "us"})
	}
	for _, md := range trainMethods {
		p := "nn.train." + md.name + "."
		ms = append(ms, metric{name: p + "forward_ms_p50", unit: "ms"}, metric{name: p + "backward_ms_p50", unit: "ms"},
			metric{name: p + "sgd_ms_p50", unit: "ms"}, metric{name: p + "alloc_mb_per_step", unit: "MiB"})
	}
	return append(ms,
		metric{name: "dataset.generate_s", unit: "s"},
		metric{name: "dataset.gather_ms_p50", unit: "ms"},
		metric{name: "runtime.cpu_ms_per_req", unit: "ms"},
		metric{name: "runtime.alloc_kb_per_req", unit: "KiB"},
		metric{name: "runtime.gc_per_s", unit: "1/s"},
		metric{name: "obs.tracing_overhead_pct", unit: "%"},
		metric{name: "loadgen.late_ms_p99", unit: "ms"},
		metric{name: "loadgen.late_ms_max", unit: "ms"},
		metric{name: "loadgen.calib_gflops_start", unit: "GFLOP/s"},
		metric{name: "loadgen.calib_gflops_end", unit: "GFLOP/s"},
	)
}()

// layerMetrics collects per-layer values by name; names the run never sets
// read 0.
type layerMetrics struct{ v map[string]float64 }

func newLayerMetrics() *layerMetrics { return &layerMetrics{v: map[string]float64{}} }

func (m *layerMetrics) set(name string, v float64) {
	for _, pl := range perLayer {
		if pl.name == name {
			m.v[name] = v
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

func (m *layerMetrics) list() []metric {
	out := make([]metric, len(perLayer))
	for i, pl := range perLayer {
		out[i] = metric{pl.name, m.v[pl.name], pl.unit}
	}
	return out
}

var workloadNames = []string{"structured_http", "sharded_http", "train_shl"}

func runWorkload(name string, seed int64, seconds float64, trace bool, outDir string) (report, error) {
	file := fmt.Sprintf("spans-%s-seed%d.json", name, seed)
	if w, ok := servingWorkloads[name]; ok {
		if trace {
			return runServingTraced(w, seed, seconds, outDir, file)
		}
		return runServingE2E(w, seed, seconds)
	}
	if name == "train_shl" {
		if trace {
			return runTrainTraced(outDir, file)
		}
		return runTrainE2E(seconds)
	}
	return report{}, errUsage
}

var errUsage = errors.New("unknown workload")

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the run's inputs: arrival times, model choice, feature vectors")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outDir := flag.String("out", ".bench_build", "directory the traced runs write their spans to")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	fmt.Printf("perfbench: GOMAXPROCS=%d NumCPU=%d seed=%d seconds=%g trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed, *seconds, *trace)

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Metrics: map[string]map[string]any{}}
	for _, name := range names {
		fmt.Printf("== %s\n", name)
		rep, err := runWorkload(name, *seed, *seconds, *trace == 1, filepath.Join(*outDir, "spans"))
		if errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", name, strings.Join(workloadNames, ", "))
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		fmt.Printf("%s: attempted %d, failed %d\n", name, rep.attempted, rep.failed)
		for _, m := range rep.metrics {
			key := m.name
			if len(names) > 1 {
				key = name + "/" + m.name
			}
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(os.Stderr, "perfbench: %s is %v; reported as 0\n", key, v)
				v = 0
			}
			fmt.Printf("  %-40s %14.6g %s\n", key, v, m.unit)
			out.Metrics[key] = map[string]any{"value": v, "unit": m.unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
