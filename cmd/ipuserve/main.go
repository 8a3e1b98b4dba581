// Command ipuserve serves SHL models for inference over an HTTP JSON API,
// with dynamic micro-batching and a compiled-program cache that annotates
// every response with the modelled IPU latency and memory of its batch.
//
// Serve:
//
//	ipuserve -addr :8080 -methods dense,butterfly,pixelfly
//	curl -s localhost:8080/models
//	curl -s -X POST localhost:8080/predict \
//	    -d '{"model":"butterfly","features":[0.1, ... 1024 floats ...]}'
//	curl -s localhost:8080/stats
//
// Benchmark the serving stack instead of serving (compares the methods
// head-to-head and prints throughput plus p50/p95/p99 latency per method):
//
//	ipuserve -loadgen -rps 500 -duration 10s -methods dense,butterfly,pixelfly
//
// Shard models across several modelled IPUs (tensor-parallel or pipeline,
// planner-chosen; -loadgen then reports sharded vs unsharded side by side):
//
//	ipuserve -ipus 4 -shards 0 -ipu-mem 64 -methods dense,butterfly
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/obs/timeline"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tensor"
)

var methodNames = map[string]nn.Method{
	"dense":     nn.Baseline,
	"baseline":  nn.Baseline,
	"butterfly": nn.Butterfly,
	"fastfood":  nn.Fastfood,
	"circulant": nn.Circulant,
	"lowrank":   nn.LowRank,
	"low-rank":  nn.LowRank,
	"pixelfly":  nn.Pixelfly,
}

func parseMethods(s string) ([]nn.Method, []string, error) {
	if s == "all" {
		names := []string{"dense", "butterfly", "fastfood", "circulant", "lowrank", "pixelfly"}
		ms := make([]nn.Method, len(names))
		for i, n := range names {
			ms[i] = methodNames[n]
		}
		return ms, names, nil
	}
	var ms []nn.Method
	var names []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.ToLower(strings.TrimSpace(tok))
		m, ok := methodNames[tok]
		if !ok {
			return nil, nil, fmt.Errorf("unknown method %q (want dense, butterfly, fastfood, circulant, lowrank, pixelfly or all)", tok)
		}
		ms = append(ms, m)
		names = append(names, tok)
	}
	return ms, names, nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		n        = flag.Int("n", 1024, "SHL layer width (power of two; 1024 is the paper's)")
		classes  = flag.Int("classes", 10, "output classes")
		methods  = flag.String("methods", "dense,butterfly,pixelfly", "comma-separated methods to register, or 'all'")
		seed     = flag.Int64("seed", 42, "weight-init seed")
		maxBatch = flag.Int("maxbatch", 64, "micro-batcher: max coalesced batch size")
		workers  = flag.Int("workers", 0, "micro-batcher: worker goroutines (0 = GOMAXPROCS)")
		device   = flag.String("device", "gc200", "device model for the program cache: gc200 or gc2")
		loadgen  = flag.Bool("loadgen", false, "run the built-in load generator instead of serving")
		rps      = flag.Int("rps", 500, "loadgen: offered requests/second per method")
		duration = flag.Duration("duration", 10*time.Second, "loadgen: time to offer load per method")
		burst    = flag.Int("burst", 1, "loadgen: requests issued per arrival tick (ticks slow to rps/burst, so the offered rate is unchanged; >1 lets the batcher coalesce multi-row batches)")
		benchout = flag.String("benchout", "BENCH_serve.json", "loadgen: machine-readable perf record path (empty disables)")
		history  = flag.String("history", "", "loadgen: append this run as one line of the JSONL perf history (empty disables)")
		metout   = flag.String("metricsout", "", "loadgen: after the load, scrape /metrics over a real loopback listener and write the exposition here (empty disables)")
		tlout    = flag.String("timeline-out", "", "loadgen: write one representative Chrome trace-event JSON timeline per model×shards here, loadable in Perfetto (empty disables)")
		ipus     = flag.Int("ipus", 1, "modelled IPUs available per model (IPU-Link pod size)")
		shards   = flag.Int("shards", 0, "shard count per model: 0 auto-picks the smallest that fits -ipu-mem")
		ipuMemMB = flag.Int("ipu-mem", 0, "per-IPU memory budget in MB for the auto shard pick (0 = full chip SRAM)")
		report   = flag.Bool("report", false, "render a markdown trajectory report from the -history JSONL and exit (default history: BENCH_history.jsonl)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof on the serving mux and pin per-model pprof labels around plan execution")
	)
	flag.Parse()

	if *report {
		path := *history
		if path == "" {
			path = "BENCH_history.jsonl"
		}
		if err := runReport(os.Stdout, path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ms, names, err := parseMethods(*methods)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var cfg ipu.Config
	switch strings.ToLower(*device) {
	case "gc200":
		cfg = ipu.GC200()
	case "gc2":
		cfg = ipu.GC2()
	default:
		fmt.Fprintf(os.Stderr, "unknown device %q (want gc200 or gc2)\n", *device)
		os.Exit(2)
	}

	bcfg := serve.BatcherConfig{
		MaxBatch: *maxBatch,
		Workers:  *workers,
	}
	opts := serve.Options{
		IPU:            cfg,
		Batcher:        bcfg,
		NumIPUs:        *ipus,
		PerIPUMemBytes: *ipuMemMB << 20,
		Shards:         *shards,
		PprofLabels:    *pprofOn,
	}
	reg := serve.NewRegistry(opts)
	defer reg.Close()

	specs := make([]serve.ModelSpec, len(ms))
	for i, m := range ms {
		specs[i] = serve.ModelSpec{
			Name: names[i], Method: m, N: *n, Classes: *classes, Seed: *seed,
		}
		info, err := reg.Register(specs[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("registered %-10s (%s, %d params, v%d, %d shard(s))\n",
			names[i], info.Info().Method, info.Info().Params, info.Info().Version, info.Info().Shards)
	}

	if *loadgen {
		// With a multi-IPU topology, also drive an unsharded registry over
		// the same specs so the perf record compares sharded vs unsharded
		// serving head-to-head. Built (and its models trained) only when at
		// least one model actually sharded — otherwise the baseline rows
		// would duplicate the main ones key-for-key.
		var base *serve.Registry
		anySharded := false
		for _, sp := range specs {
			if m, ok := reg.Get(sp.Name); ok && m.Shards() > 1 {
				anySharded = true
				break
			}
		}
		if *ipus > 1 && anySharded {
			baseOpts := opts
			baseOpts.NumIPUs, baseOpts.Shards, baseOpts.PerIPUMemBytes = 1, 0, 0
			base = serve.NewRegistry(baseOpts)
			defer base.Close()
			for _, sp := range specs {
				if _, err := base.Register(sp); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		runLoadgen(reg, base, specs, bcfg, *rps, *burst, *duration, *benchout, *history, *metout, *tlout)
		return
	}

	fmt.Printf("serving on %s (POST /predict, GET /models, GET /stats, GET /metrics, GET /debug/traces, GET /debug/costmodel, GET /healthz)\n", *addr)
	handler := http.Handler(serve.NewServer(reg))
	if *pprofOn {
		// The serving mux stays pprof-free by default; behind the flag the
		// standard profiling endpoints mount in front of it.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		handler = mux
		fmt.Println("pprof enabled on /debug/pprof/ with per-model execution labels")
	}
	// Bounded server timeouts so a stalled or malicious client can't pin
	// a connection (and its goroutine) forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// benchRecord is the per-model block of the BENCH_serve.json perf record —
// the repo's machine-readable serving-performance trajectory.
type benchRecord struct {
	Model         string  `json:"model"`
	Shards        int     `json:"shards"`
	Strategy      string  `json:"strategy,omitempty"`
	RPS           int     `json:"offered_rps"`
	Done          int     `json:"done"`
	Errors        int     `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Millis     float64 `json:"p50_ms"`
	P95Millis     float64 `json:"p95_ms"`
	P99Millis     float64 `json:"p99_ms"`
	AvgBatch      float64 `json:"avg_batch"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
}

// allocProbe compares the compiled-plan serving path against the
// pre-refactor per-layer allocating inference path (a batcher directly
// over Sequential.Infer), both driven by the same sequential
// single-request loop, in heap allocations per request.
type allocProbe struct {
	Model             string  `json:"model"`
	PlanAllocsPerOp   float64 `json:"plan_allocs_per_op"`
	LegacyAllocsPerOp float64 `json:"legacy_allocs_per_op"`
	ReductionFactor   float64 `json:"reduction_factor"`
}

// fusionProbe is the fused-vs-unfused plan comparison of one model at the
// batcher's largest batch bucket: step counts, resident arena bytes and
// modelled activation-arena traffic. cmd/benchgate gates TrafficBytes and
// FusedSteps so a silently disabled fusion pass fails CI.
type fusionProbe struct {
	Model               string  `json:"model"`
	Batch               int     `json:"batch"`
	Steps               int     `json:"plan_steps"`
	StepsUnfused        int     `json:"plan_steps_unfused"`
	FusedSteps          int     `json:"fused_steps"`
	TrafficBytes        int     `json:"traffic_bytes"`
	TrafficBytesUnfused int     `json:"traffic_bytes_unfused"`
	TrafficReduction    float64 `json:"traffic_reduction"`
	ArenaBytes          int     `json:"arena_bytes"`
	ArenaBytesUnfused   int     `json:"arena_bytes_unfused"`
}

// kernelRecord is one row of the per-kernel accounting table: cumulative
// work and achieved rates for one kernel family across every plan executed
// during the load. cmd/benchgate gates GFlopsPerSec per kernel.
type kernelRecord struct {
	Kernel string `json:"kernel"`
	// Variant is the micro-kernel shape the family's steps dispatched to
	// at compile time, gathered across the registry's models (distinct
	// variants joined with ","; empty when no model reported one).
	Variant      string  `json:"variant,omitempty"`
	Calls        int64   `json:"calls"`
	Flops        int64   `json:"flops"`
	ArenaBytes   int64   `json:"arena_bytes"`
	GFlopsPerSec float64 `json:"gflops_per_sec"`
	BytesPerSec  float64 `json:"bytes_per_sec"`
}

// driftRecord is one plan step's modelled-vs-measured cost: the modelled
// IPU seconds per row next to the measured host wall-clock per row. The
// absolute ratio reflects host-vs-modelled-IPU scale; benchgate watches
// its movement between runs, not its level.
type driftRecord struct {
	Model           string  `json:"model"`
	Shards          int     `json:"shards"`
	Step            string  `json:"step"`
	Variant         string  `json:"variant,omitempty"`
	ModelledSeconds float64 `json:"modelled_s_per_row"`
	MeasuredSeconds float64 `json:"measured_s_per_row"`
	Ratio           float64 `json:"ratio"`
}

// phaseRecord is one model's BSP phase-utilization block, aggregated
// from the flight recorder's sampled batches over the load: each phase's
// share of summed per-IPU executor time. cmd/benchgate gates
// BubbleFraction and ExchangeShare growth (-phase-tol) so the future
// exchange-overlap work has a ratchet to push against.
type phaseRecord struct {
	Model    string `json:"model"`
	Shards   int    `json:"shards"`
	Strategy string `json:"strategy,omitempty"`
	// MicroBatches is the wavefront width pipeline batches were split
	// into (omitted for tensor-parallel and unsharded models).
	MicroBatches   int     `json:"micro_batches,omitempty"`
	SampledBatches int64   `json:"sampled_batches"`
	ComputeShare   float64 `json:"compute_share"`
	ExchangeShare  float64 `json:"exchange_share"`
	BarrierShare   float64 `json:"barrier_share"`
	BubbleFraction float64 `json:"bubble_fraction"`
}

type benchFile struct {
	GeneratedAt     string         `json:"generated_at"`
	DurationSeconds float64        `json:"duration_s_per_model"`
	N               int            `json:"n"`
	Models          []benchRecord  `json:"models"`
	AllocProbes     []allocProbe   `json:"alloc_probes"`
	FusionProbes    []fusionProbe  `json:"fusion_probes"`
	Kernels         []kernelRecord `json:"kernels"`
	Drift           []driftRecord  `json:"drift"`
	Phases          []phaseRecord  `json:"phases,omitempty"`
}

// historySchema versions the JSONL history lines; cmd/benchgate rejects
// lines carrying a different version.
const historySchema = 1

// historyRecord is one line of the append-only perf history
// (BENCH_history.jsonl): everything one loadgen run measured, stamped
// with the schema version and the commit under test. benchgate's
// trajectory gate reads a subset of these fields.
type historyRecord struct {
	Schema          int            `json:"schema"`
	GeneratedAt     string         `json:"generated_at"`
	Commit          string         `json:"commit,omitempty"`
	N               int            `json:"n"`
	DurationSeconds float64        `json:"duration_s_per_model"`
	Models          []benchRecord  `json:"models"`
	Kernels         []kernelRecord `json:"kernels,omitempty"`
	Phases          []phaseRecord  `json:"phases,omitempty"`
}

// pass is one loadgen sweep over a registry's models; skip drops models
// whose rows would duplicate another pass's key-for-key.
type pass struct {
	r    *serve.Registry
	skip func(name string) bool
}

func runLoadgen(reg, base *serve.Registry, specs []serve.ModelSpec, bcfg serve.BatcherConfig, rps, burst int, duration time.Duration, benchout, history, metricsout, timelineOut string) {
	fmt.Printf("\nload: %d req/s per model for %v each (bursts of %d)\n\n", rps, duration, burst)
	fmt.Printf("%-10s %7s %8s %6s %10s %9s %9s %9s %9s %7s %10s %9s\n",
		"model", "shards", "done", "err", "thr(req/s)", "p50(ms)", "p95(ms)", "p99(ms)", "avg.batch", "hit%", "allocs/op", "ipu(µs/req)")
	var records []benchRecord
	var n int
	if len(specs) > 0 {
		n = specs[0].N
	}
	// The unsharded baseline first (when present), then the main registry:
	// the perf record then reads unsharded vs sharded per model. Models the
	// main registry left on one shard are skipped in the baseline pass —
	// their rows (and benchgate keys) would duplicate exactly.
	passes := []pass{{r: reg}}
	if base != nil {
		sharded := func(name string) bool {
			m, ok := reg.Get(name)
			return ok && m.Shards() > 1
		}
		passes = []pass{{r: base, skip: func(name string) bool { return !sharded(name) }}, {r: reg}}
	}
	for _, ps := range passes {
		r := ps.r
		for _, sp := range specs {
			if ps.skip != nil && ps.skip(sp.Name) {
				continue
			}
			rep, err := serve.RunLoad(context.Background(), r, sp.Name, serve.LoadConfig{
				RPS: rps, Duration: duration, Burst: burst,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if rep.AllErrors {
				fmt.Fprintf(os.Stderr, "warning: %s: all %d offered requests failed; zero percentiles below mean no data, not zero latency\n",
					sp.Name, rep.Offered)
			}
			m, _ := r.Get(sp.Name)
			shards := m.Shards()
			strategy := ""
			if cost, err := m.ModelledCost(int(rep.Batching.MaxBatch)); err == nil && cost != nil {
				strategy = cost.Strategy
			}
			ipuPerReq := modelledPerRequest(r, sp.Name, rep)
			fmt.Printf("%-10s %7d %8d %6d %10.1f %9.3f %9.3f %9.3f %9.2f %6.1f%% %10.1f %9s\n",
				sp.Name, shards, rep.Done, rep.Errors, rep.Throughput(),
				rep.Latency.P50*1e3, rep.Latency.P95*1e3, rep.Latency.P99*1e3,
				rep.Batching.AvgBatch, rep.Cache.HitRate*100, rep.AllocsPerOp, ipuPerReq)
			records = append(records, benchRecord{
				Model:         sp.Name,
				Shards:        shards,
				Strategy:      strategy,
				RPS:           rps,
				Done:          rep.Done,
				Errors:        rep.Errors,
				ThroughputRPS: rep.Throughput(),
				P50Millis:     rep.Latency.P50 * 1e3,
				P95Millis:     rep.Latency.P95 * 1e3,
				P99Millis:     rep.Latency.P99 * 1e3,
				AvgBatch:      rep.Batching.AvgBatch,
				AllocsPerOp:   rep.AllocsPerOp,
				BytesPerOp:    rep.BytesPerOp,
				CacheHitRate:  rep.Cache.HitRate,
			})
		}
	}
	cs := reg.CacheStats()
	fmt.Printf("\nprogram cache: %d entries, %d hits / %d misses (%.1f%% hit rate)\n",
		cs.Entries, cs.Hits, cs.Misses, cs.HitRate*100)

	// Phase utilization, from the same sharded-then-unsharded passes the
	// perf records use: per model, what share of summed per-IPU executor
	// time the flight recorder attributes to each BSP phase. Collected
	// (and the representative timelines exported) immediately after the
	// load passes, BEFORE the alloc/fusion probes below: the probes push
	// hundreds of sequential 1-row predicts through the same recorders,
	// which would dilute the load's batch mix and skew the bubble
	// fraction the phases block gates on.
	var phases []phaseRecord
	fmt.Printf("\nphase utilization (flight-recorder sampled batches; per-IPU shares of executor time):\n")
	fmt.Printf("%-10s %7s %-16s %5s %5s %9s %10s %9s %9s %8s\n",
		"model", "shards", "strategy", "micro", "ipu", "comp%", "exch%", "barr%", "bubble%", "batches")
	for _, ps := range passes {
		for _, sp := range specs {
			if ps.skip != nil && ps.skip(sp.Name) {
				continue
			}
			m, ok := ps.r.Get(sp.Name)
			if !ok {
				continue
			}
			sum, ok := m.TimelineSummary()
			if !ok {
				continue
			}
			phases = append(phases, phaseRecord{
				Model:          sum.Model,
				Shards:         sum.Shards,
				Strategy:       sum.Strategy,
				MicroBatches:   sum.MicroBatches,
				SampledBatches: sum.Batches,
				ComputeShare:   sum.ComputeShare,
				ExchangeShare:  sum.ExchangeShare,
				BarrierShare:   sum.BarrierShare,
				BubbleFraction: sum.BubbleFraction,
			})
			for _, row := range sum.PerIPU {
				fmt.Printf("%-10s %7d %-16s %5d %5d %8.1f%% %9.1f%% %8.1f%% %8.1f%% %8d\n",
					sum.Model, sum.Shards, sum.Strategy, sum.MicroBatches, row.IPU,
					row.ComputePct, row.ExchangePct, row.BarrierPct, row.BubblePct, sum.Batches)
			}
		}
	}

	if timelineOut != "" {
		if err := writeTimeline(timelineOut, passes, specs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace timeline written to %s\n", timelineOut)
	}

	fmt.Printf("\nalloc probe (sequential single requests, plan path vs pre-refactor Infer path):\n")
	fmt.Printf("%-10s %14s %16s %10s\n", "model", "plan(allocs)", "legacy(allocs)", "reduction")
	var probes []allocProbe
	for _, sp := range specs {
		p, err := probeAllocs(reg, sp, bcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		probes = append(probes, p)
		fmt.Printf("%-10s %14.1f %16.1f %9.1fx\n",
			p.Model, p.PlanAllocsPerOp, p.LegacyAllocsPerOp, p.ReductionFactor)
	}

	fmt.Printf("\nfusion probe (compiled plan, fused vs unfused, batch %d):\n", bcfg.MaxBatch)
	fmt.Printf("%-10s %6s %8s %13s %15s %10s\n",
		"model", "steps", "unfused", "traffic(KiB)", "unfused(KiB)", "reduction")
	var fprobes []fusionProbe
	for _, sp := range specs {
		fp, err := probeFusion(sp, bcfg.MaxBatch)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fprobes = append(fprobes, fp)
		fmt.Printf("%-10s %6d %8d %13.1f %15.1f %9.2fx\n",
			fp.Model, fp.Steps, fp.StepsUnfused,
			float64(fp.TrafficBytes)/1024, float64(fp.TrafficBytesUnfused)/1024,
			fp.TrafficReduction)
	}

	kernels := kernelTable(reg)
	if len(kernels) > 0 {
		fmt.Printf("\nper-kernel accounting (cumulative over the load, main registry):\n")
		fmt.Printf("%-10s %-12s %10s %14s %10s %10s\n", "kernel", "variant", "calls", "GFLOP", "GFLOP/s", "GB/s")
		for _, k := range kernels {
			fmt.Printf("%-10s %-12s %10d %14.2f %10.2f %10.2f\n",
				k.Kernel, k.Variant, k.Calls, float64(k.Flops)/1e9, k.GFlopsPerSec, k.BytesPerSec/1e9)
		}
	}

	drift := driftTable(reg)
	if len(drift) > 0 {
		fmt.Printf("\ncost-model drift (measured host s/row vs modelled IPU s/row; watch movement, not level):\n")
		fmt.Printf("%-10s %7s %-22s %-12s %14s %14s %8s\n", "model", "shards", "step", "variant", "modelled(ns)", "measured(ns)", "ratio")
		for _, d := range drift {
			fmt.Printf("%-10s %7d %-22s %-12s %14.1f %14.1f %8.2f\n",
				d.Model, d.Shards, d.Step, d.Variant, d.ModelledSeconds*1e9, d.MeasuredSeconds*1e9, d.Ratio)
		}
	}

	if metricsout != "" {
		if err := scrapeMetrics(reg, metricsout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics exposition written to %s\n", metricsout)
	}

	if history != "" {
		if err := appendHistory(history, historyRecord{
			Schema:          historySchema,
			GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
			Commit:          os.Getenv("GITHUB_SHA"),
			N:               n,
			DurationSeconds: duration.Seconds(),
			Models:          records,
			Kernels:         kernels,
			Phases:          phases,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("perf history appended to %s\n", history)
	}

	if benchout == "" {
		return
	}
	out := benchFile{
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
		DurationSeconds: duration.Seconds(),
		N:               n,
		Models:          records,
		AllocProbes:     probes,
		FusionProbes:    fprobes,
		Kernels:         kernels,
		Drift:           drift,
		Phases:          phases,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := writeFileAtomic(benchout, append(data, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("perf record written to %s\n", benchout)
}

// writeFileAtomic replaces path's contents via a temp file in the same
// directory and os.Rename, so a reader (cmd/benchgate, or a run killed
// mid-write) never sees a truncated perf record. The history JSONL needs
// no such treatment: its appends are single whole-line O_APPEND writes.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// writeTimeline dumps one representative Chrome trace-event timeline per
// model×shards across the loadgen passes: one trace process per model of
// each pass (unsharded and sharded rows are distinguished by the process
// label's strategy/shard suffix), each carrying its most recent sampled
// batch. The file loads directly in Perfetto or chrome://tracing.
func writeTimeline(path string, passes []pass, specs []serve.ModelSpec) error {
	var procs []timeline.ChromeProcess
	for _, ps := range passes {
		for _, sp := range specs {
			if ps.skip != nil && ps.skip(sp.Name) {
				continue
			}
			m, ok := ps.r.Get(sp.Name)
			if !ok {
				continue
			}
			proc, ok := m.TimelineProcess()
			if !ok {
				continue
			}
			// One representative batch — the most recent — per model×shards.
			proc.Batches = proc.Batches[len(proc.Batches)-1:]
			procs = append(procs, proc)
		}
	}
	var buf strings.Builder
	if err := timeline.WriteChrome(&buf, procs); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// kernelTable snapshots the registry's per-kernel accounting into the
// perf-record rows, skipping kernels that never ran, and annotates each
// family with the micro-kernel variant its models dispatched to.
func kernelTable(reg *serve.Registry) []kernelRecord {
	variants := map[string]map[string]bool{}
	for _, m := range reg.Models() {
		for fam, v := range m.KernelVariants() {
			if variants[fam] == nil {
				variants[fam] = map[string]bool{}
			}
			variants[fam][v] = true
		}
	}
	var out []kernelRecord
	for _, s := range reg.KernelStats().Snapshot() {
		var vs []string
		for v := range variants[s.Kernel] {
			vs = append(vs, v)
		}
		sort.Strings(vs)
		out = append(out, kernelRecord{
			Kernel:       s.Kernel,
			Variant:      strings.Join(vs, ","),
			Calls:        s.Calls,
			Flops:        s.Flops,
			ArenaBytes:   s.Bytes,
			GFlopsPerSec: s.GFlopsPerSec,
			BytesPerSec:  s.BytesPerSec,
		})
	}
	return out
}

// driftTable flattens every model's cost-model report into perf-record
// rows, dropping steps that never saw traffic (ratio 0).
func driftTable(reg *serve.Registry) []driftRecord {
	var out []driftRecord
	for _, m := range reg.Models() {
		name := m.Info().Name
		shards := m.Shards()
		for _, d := range m.CostModelReport() {
			if d.Ratio <= 0 {
				continue
			}
			out = append(out, driftRecord{
				Model:           name,
				Shards:          shards,
				Step:            d.Step,
				Variant:         d.Variant,
				ModelledSeconds: d.ModelledSeconds,
				MeasuredSeconds: d.MeasuredSeconds,
				Ratio:           d.Ratio,
			})
		}
	}
	return out
}

// appendHistory writes one compact JSON line to the append-only perf
// history, creating the file on first use. Appends are whole-line and
// O_APPEND, so concurrent runs interleave at line granularity.
func appendHistory(path string, rec historyRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrapeMetrics serves the registry on a loopback listener and fetches
// /metrics over real HTTP — the same path a Prometheus scrape takes — so
// the written exposition proves the endpoint end-to-end, not just the
// encoder.
func scrapeMetrics(reg *serve.Registry, path string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	srv := &http.Server{Handler: serve.NewServer(reg), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics scrape: status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	return os.WriteFile(path, body, 0o644)
}

// probeAllocs measures heap allocations per request of the registered
// (plan-executing) model against a freshly built batcher running the same
// weights through the pre-refactor Sequential.Infer path. Both sides run
// the same sequential request loop; the plan side goes through the full
// Predict (its per-request bookkeeping is allocation-free, and the legacy
// loop mirrors the class selection), so the comparison is within ~1
// alloc/op of apples-to-apples.
func probeAllocs(reg *serve.Registry, sp serve.ModelSpec, bcfg serve.BatcherConfig) (allocProbe, error) {
	m, ok := reg.Get(sp.Name)
	if !ok {
		return allocProbe{}, fmt.Errorf("alloc probe: unknown model %q", sp.Name)
	}
	features := tensor.New(1, sp.N)
	features.FillRandom(rand.New(rand.NewSource(3)), 1)
	ctx := context.Background()

	plan, err := allocsPerOp(func() error {
		_, err := m.Predict(ctx, features.Data)
		return err
	})
	if err != nil {
		return allocProbe{}, fmt.Errorf("alloc probe %q (plan): %w", sp.Name, err)
	}

	legacyNet := nn.BuildSHL(sp.Method, sp.N, sp.Classes, rand.New(rand.NewSource(sp.Seed)))
	legacyBatcher := serve.NewBatcher(sp.N, bcfg, legacyNet.Infer)
	defer legacyBatcher.Stop()
	var sink int
	legacy, err := allocsPerOp(func() error {
		scores, _, err := legacyBatcher.Do(ctx, features.Data)
		// Mirror the per-request bookkeeping Predict performs on the plan
		// side (class selection) so the two loops stay comparable.
		sink = stats.ArgMax(scores)
		return err
	})
	_ = sink
	if err != nil {
		return allocProbe{}, fmt.Errorf("alloc probe %q (legacy): %w", sp.Name, err)
	}

	p := allocProbe{Model: sp.Name, PlanAllocsPerOp: plan, LegacyAllocsPerOp: legacy}
	if plan > 0 {
		p.ReductionFactor = legacy / plan
	}
	return p, nil
}

// probeFusion compiles the spec's network into a fused and an unfused
// plan at the batcher's largest batch bucket and reports the fusion win —
// the same weights the registry serves (specs are seed-deterministic), so
// the probe tracks exactly what the serving path executes.
func probeFusion(sp serve.ModelSpec, batch int) (fusionProbe, error) {
	net := nn.BuildSHL(sp.Method, sp.N, sp.Classes, rand.New(rand.NewSource(sp.Seed)))
	fused, err := net.CompilePlan(batch)
	if err != nil {
		return fusionProbe{}, fmt.Errorf("fusion probe %q: %w", sp.Name, err)
	}
	unfused, err := net.CompilePlanOpts(batch, nn.PlanOptions{NoFuse: true})
	if err != nil {
		return fusionProbe{}, fmt.Errorf("fusion probe %q (unfused): %w", sp.Name, err)
	}
	fs, us := fused.Stats(), unfused.Stats()
	fp := fusionProbe{
		Model:               sp.Name,
		Batch:               batch,
		Steps:               fs.Steps,
		StepsUnfused:        us.Steps,
		FusedSteps:          fs.FusedSteps,
		TrafficBytes:        fs.TrafficBytes,
		TrafficBytesUnfused: us.TrafficBytes,
		ArenaBytes:          fs.ArenaBytes,
		ArenaBytesUnfused:   us.ArenaBytes,
	}
	if fp.TrafficBytes > 0 {
		fp.TrafficReduction = float64(fp.TrafficBytesUnfused) / float64(fp.TrafficBytes)
	}
	return fp, nil
}

// allocsPerOp runs op sequentially and reports the process heap-allocation
// delta per call, after a warm-up that lets pools and plans settle.
func allocsPerOp(op func() error) (float64, error) {
	const warm, measured = 64, 256
	for i := 0; i < warm; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < measured; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / measured, nil
}

// modelledPerRequest reads the modelled per-request IPU latency at the
// run's largest coalesced batch bucket — a compiled program the load
// itself already cached, so this is a lookup, not a fresh compile.
func modelledPerRequest(reg *serve.Registry, name string, rep serve.LoadReport) string {
	m, ok := reg.Get(name)
	if !ok || rep.Batching.MaxBatch < 1 {
		return "-"
	}
	cost, err := m.ModelledCost(int(rep.Batching.MaxBatch))
	if err != nil {
		return "-"
	}
	return fmt.Sprintf("%.2f", cost.PerRequestSeconds*1e6)
}
