// Command ipuserve serves SHL models for inference over an HTTP JSON API,
// with dynamic micro-batching and a compiled program per model and batch
// bucket that annotates every response with the modelled IPU latency and
// memory of its batch.
//
// Serve:
//
//	ipuserve -addr :8080 -methods dense,butterfly,pixelfly
//	curl -s localhost:8080/models
//	curl -s -X POST localhost:8080/predict \
//	    -d '{"model":"butterfly","features":[0.1, ... 1024 floats ...]}'
//	curl -s localhost:8080/stats
//
// Shard models across several modelled IPUs (tensor-parallel or pipeline,
// planner-chosen):
//
//	ipuserve -ipus 4 -shards 0 -ipu-mem 64 -methods dense,butterfly
package main

import (
	"flag"
	"fmt"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor/microkernel"
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
		device   = flag.String("device", "gc200", "device model the programs are priced on: gc200 or gc2")
		ipus     = flag.Int("ipus", 1, "modelled IPUs available per model (IPU-Link pod size)")
		shards   = flag.Int("shards", 0, "shard count per model: 0 auto-picks the smallest that fits -ipu-mem")
		ipuMemMB = flag.Int("ipu-mem", 0, "per-IPU memory budget in MB for the auto shard pick (0 = full chip SRAM)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof on the serving mux (batches always run under per-model pprof labels)")
	)
	flag.Parse()

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

	reg := serve.NewRegistry(serve.Options{
		IPU:            cfg,
		Batcher:        serve.BatcherConfig{MaxBatch: *maxBatch, Workers: *workers},
		NumIPUs:        *ipus,
		PerIPUMemBytes: *ipuMemMB << 20,
		Shards:         *shards,
	})
	defer reg.Close()

	for i, m := range ms {
		info, err := reg.Register(serve.ModelSpec{
			Name: names[i], Method: m, N: *n, Classes: *classes, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("registered %-10s (%s, %d params, v%d, %d shard(s))\n",
			names[i], info.Info().Method, info.Info().Params, info.Info().Version, info.Info().Shards)
	}

	fmt.Printf("dense matmul tile: %s\n", microkernel.Variant())
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
