package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/tensor"
)

func obsTestRegistry(t *testing.T, opts Options, spec ModelSpec) *Registry {
	t.Helper()
	reg := NewRegistry(opts)
	t.Cleanup(reg.Close)
	if _, err := reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	return reg
}

func obsTestFeatures(n int) []float32 {
	x := tensor.New(1, n)
	x.FillRandom(rand.New(rand.NewSource(7)), 1)
	return x.Data
}

// TestMetricsAndTracesUnderLoad scrapes /metrics and /debug/traces over
// real HTTP concurrently with predict traffic — the -race run of this
// test is the data-race gate on the whole instrumentation layer.
func TestMetricsAndTracesUnderLoad(t *testing.T) {
	spec := ModelSpec{Name: "bf", Method: nn.Butterfly, N: 256, Classes: 10, Seed: 1}
	reg := obsTestRegistry(t, Options{TraceSampleEvery: 1, TraceKeep: 32}, spec)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	features := obsTestFeatures(spec.N)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := reg.Predict(context.Background(), "bf", features); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	scrape := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return ""
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				scrape("/metrics")
				scrape("/debug/traces")
			}
		}()
	}
	wg.Wait()

	// After the load, the exposition must carry the core series.
	body := scrape("/metrics")
	for _, series := range []string{
		`ipuserve_requests_total{model="bf"}`,
		`ipuserve_request_seconds_bucket{model="bf",le=`,
		`ipuserve_batch_size_bucket{`,
		"ipuserve_cache_hits_total",
		"ipuserve_cache_misses_total",
		"ipuserve_plan_step_seconds_bucket{",
		"ipuserve_batcher_flush_total{",
		"ipuserve_models 1",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	var traces TracesResponse
	if err := json.Unmarshal([]byte(scrape("/debug/traces")), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) == 0 {
		t.Fatal("/debug/traces empty after sampled traffic")
	}
}

// TestTraceStepSpansMatchPlan pins the acceptance criterion that a
// sampled trace's per-step spans line up with the compiled plan's step
// count (Lowering.Stats(rows).Steps, reported as ProgramCost.PlanSteps).
func TestTraceStepSpansMatchPlan(t *testing.T) {
	spec := ModelSpec{Name: "bf", Method: nn.Butterfly, N: 256, Classes: 10, Seed: 1}
	reg := obsTestRegistry(t, Options{TraceSampleEvery: 1, TraceKeep: 8}, spec)

	var planSteps int
	for i := 0; i < 3; i++ { // a few requests so the trace ring has the steady state
		p, err := reg.Predict(context.Background(), "bf", obsTestFeatures(spec.N))
		if err != nil {
			t.Fatal(err)
		}
		if p.IPU == nil {
			t.Fatal("prediction carries no modelled cost")
		}
		planSteps = p.IPU.PlanSteps
	}
	if planSteps == 0 {
		t.Fatal("plan reports zero steps")
	}
	snap := reg.Tracer().Snapshot()
	if len(snap) == 0 {
		t.Fatal("no traces at sample-every=1")
	}
	last := snap[len(snap)-1]
	stepSpans := 0
	var total int64
	for _, sp := range last.Spans {
		if strings.HasPrefix(sp.Name, "step:") {
			stepSpans++
			total += sp.DurNanos
		}
	}
	if stepSpans != planSteps {
		t.Fatalf("trace has %d step spans, plan has %d steps (trace %+v)", stepSpans, planSteps, last)
	}
	if total <= 0 {
		t.Fatalf("step spans carry no measured time: %+v", last.Spans)
	}
	// The other pipeline stages must be present too.
	for _, want := range []string{"queue_wait", "execute", "cost_lookup"} {
		found := false
		for _, sp := range last.Spans {
			if sp.Name == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace missing %q span: %+v", want, last.Spans)
		}
	}
}

// TestHTTPTraceSpans drives /predict over HTTP and checks the
// HTTP-layer spans bracket the model spans.
func TestHTTPTraceSpans(t *testing.T) {
	spec := ModelSpec{Name: "bf", Method: nn.Butterfly, N: 256, Classes: 10, Seed: 1}
	reg := obsTestRegistry(t, Options{TraceSampleEvery: 1, TraceKeep: 8}, spec)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	body, err := json.Marshal(PredictRequest{Model: "bf", Features: obsTestFeatures(spec.N)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict status %d", resp.StatusCode)
	}
	snap := reg.Tracer().Snapshot()
	if len(snap) == 0 {
		t.Fatal("no trace after sampled HTTP predict")
	}
	names := map[string]bool{}
	for _, sp := range snap[len(snap)-1].Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"http_decode", "queue_wait", "execute", "http_write"} {
		if !names[want] {
			t.Errorf("HTTP trace missing %q span (got %v)", want, snap[len(snap)-1].Spans)
		}
	}
}

// TestHTTPTraceSamplingParity pins the shared-counter regression: the
// HTTP layer and Predict's self-sampling fallback draw from the same
// tracer, so the handler must record its sampling decision in the
// context even when negative. Before that, each request advanced the
// counter twice and an even sampling period starved the HTTP layer
// completely — every trace came from Predict's fallback and none
// carried the http_decode/http_write spans.
func TestHTTPTraceSamplingParity(t *testing.T) {
	spec := ModelSpec{Name: "bf", Method: nn.Butterfly, N: 256, Classes: 10, Seed: 1}
	reg := obsTestRegistry(t, Options{TraceSampleEvery: 2, TraceKeep: 64}, spec)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	body, err := json.Marshal(PredictRequest{Model: "bf", Features: obsTestFeatures(spec.N)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/predict status %d", resp.StatusCode)
		}
	}
	snap := reg.Tracer().Snapshot()
	if want := 8; len(snap) != want {
		t.Fatalf("got %d traces for 16 requests at 1-in-2 sampling, want %d", len(snap), want)
	}
	for _, rec := range snap {
		names := map[string]bool{}
		for _, sp := range rec.Spans {
			names[sp.Name] = true
		}
		if !names["http_decode"] || !names["http_write"] {
			t.Fatalf("trace %d sampled below the HTTP layer: spans %v", rec.ID, rec.Spans)
		}
	}
}

func TestHealthz(t *testing.T) {
	get := func(t *testing.T, url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// An empty registry has nothing servable: 503 with the JSON detail.
	reg := NewRegistry(Options{})
	defer reg.Close()
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz on empty registry: status %d body %q, want 503", code, body)
	}
	var hr HealthResponse
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatalf("healthz 503 body not JSON: %v (%q)", err, body)
	}
	if hr.Status != "unavailable" || len(hr.Models) != 0 {
		t.Fatalf("healthz 503 body = %+v, want status=unavailable, no models", hr)
	}

	// With a servable model the probe fast path stays bare "ok"...
	if _, err := reg.Register(ModelSpec{Name: "bf", Method: nn.Butterfly, N: 64, Classes: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, srv.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: status %d body %q, want 200 ok", code, body)
	}

	// ...and ?verbose=1 reports per-model readiness as JSON.
	code, body = get(t, srv.URL+"/healthz?verbose=1")
	if code != http.StatusOK {
		t.Fatalf("healthz?verbose=1: status %d body %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatalf("healthz verbose body not JSON: %v (%q)", err, body)
	}
	if hr.Status != "ok" || len(hr.Models) != 1 || !hr.Models[0].Ready || hr.Models[0].Model != "bf" {
		t.Fatalf("healthz verbose body = %+v, want ready model bf", hr)
	}
}

// TestWriteJSONEncodeErrorCounted pins the satellite fix: encoder
// failures are counted (and logged), not discarded.
func TestWriteJSONEncodeErrorCounted(t *testing.T) {
	reg := NewRegistry(Options{})
	defer reg.Close()
	s := NewServer(reg)
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // the error log line is expected noise here

	// A channel is not JSON-encodable, so Encode fails after the header.
	s.writeJSON(httptest.NewRecorder(), http.StatusOK, make(chan int))
	s.writeJSON(httptest.NewRecorder(), http.StatusOK, make(chan int))

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "ipuserve_http_json_encode_errors_total 2") {
		t.Fatalf("encode errors not counted in exposition:\n%s", rec.Body.String())
	}
}

// TestFactorizationErrorExported pins the satellite: the compression
// error of a served model is reported in /stats and as a gauge.
func TestFactorizationErrorExported(t *testing.T) {
	spec := ModelSpec{Name: "dense", Method: nn.Baseline, N: 64, Classes: 4, Seed: 3}
	reg := obsTestRegistry(t, Options{}, spec)
	m, reports, err := reg.RegisterCompressed("dense-c", "dense", nn.CompressOptions{Tolerance: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	want := maxFactorizationError(reports)
	if got := m.Stats().FactorizationError; got != want {
		t.Fatalf("ModelStats.FactorizationError = %v, want %v (reports %+v)", got, want, reports)
	}
	// The source model is exact.
	src, _ := reg.Get("dense")
	if got := src.Stats().FactorizationError; got != 0 {
		t.Fatalf("uncompressed model reports factorization error %v", got)
	}
	rec := httptest.NewRecorder()
	NewServer(reg).handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `ipuserve_model_factorization_error{model="dense-c"}`) {
		t.Fatal("factorization-error gauge missing from exposition")
	}
}

func TestMaxFactorizationError(t *testing.T) {
	if got := maxFactorizationError(nil); got != 0 {
		t.Fatalf("no reports: %v", got)
	}
	reports := []nn.LayerReport{
		{Kind: 0, RelError: 0.9}, // KindDense: kept exact, must not count
		{Kind: 1, RelError: 0.03},
		{Kind: 2, RelError: 0.07},
	}
	if got := maxFactorizationError(reports); got != 0.07 {
		t.Fatalf("maxFactorizationError = %v, want 0.07", got)
	}
}

// TestModelRemovalDropsSeries checks that removing a model retires its
// labeled series from the exposition.
func TestModelRemovalDropsSeries(t *testing.T) {
	spec := ModelSpec{Name: "bf", Method: nn.Butterfly, N: 64, Classes: 4, Seed: 1}
	reg := obsTestRegistry(t, Options{}, spec)
	if _, err := reg.Predict(context.Background(), "bf", obsTestFeatures(spec.N)); err != nil {
		t.Fatal(err)
	}
	exposition := func() string {
		var b strings.Builder
		if err := reg.Obs().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if !strings.Contains(exposition(), `model="bf"`) {
		t.Fatal("expected bf series before removal")
	}
	reg.Remove("bf")
	if strings.Contains(exposition(), `model="bf"`) {
		t.Fatal("bf series survived removal")
	}
}

// TestBatcherFlushReasons checks both flush-reason counters without
// depending on timing. The single worker runs a lone request (drained)
// and is held inside run while MaxBatch+1 more requests arrive: MaxBatch
// fill its queue and one waits for room. Released, it takes a full batch
// and then the one left over (drained).
func TestBatcherFlushReasons(t *testing.T) {
	const maxBatch = 4
	reg := obs.NewRegistry()
	run, entered, release := heldRun(&doubler{})
	b := newBatcher(1, BatcherConfig{MaxBatch: maxBatch, Workers: 1}, newBatcherMetrics(reg, "bf"), run)
	defer b.Stop()

	var wg sync.WaitGroup
	predict := func() {
		defer wg.Done()
		if _, _, err := b.Do(context.Background(), []float32{1}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go predict()
	<-entered
	for i := 0; i < maxBatch+1; i++ {
		wg.Add(1)
		go predict()
	}
	waitQueued(b, maxBatch)
	close(release)
	wg.Wait()

	var body strings.Builder
	if err := reg.WritePrometheus(&body); err != nil {
		t.Fatal(err)
	}
	for reason, want := range map[string]int{"full": 1, "drained": 2} {
		line := fmt.Sprintf("ipuserve_batcher_flush_total{model=\"bf\",reason=%q} %d\n", reason, want)
		if !strings.Contains(body.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

// Compile-time check that both executor kinds expose the step-timing
// introspection observeExec relies on.
var (
	_ steppedExecutor = (*nn.Plan)(nil)
	_ steppedExecutor = (*shard.ShardedPlan)(nil)
)

// goroutineLabels returns the pprof label set of every goroutine whose
// stack runs fn, read from the goroutine profile (debug=1 prints each
// stack's labels; "" for a goroutine without any).
func goroutineLabels(t *testing.T, fn string) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	_, recs, _ := strings.Cut(buf.String(), "\n") // past the header line
	var out []string
	for _, rec := range strings.Split(recs, "\n\n") {
		if !strings.Contains(rec, fn) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(rec, "%d @", &n); err != nil {
			continue
		}
		labels := ""
		if _, rest, ok := strings.Cut(rec, "\n# labels: "); ok {
			labels, _, _ = strings.Cut(rest, "\n")
		}
		for ; n > 0; n-- {
			out = append(out, labels)
		}
	}
	return out
}

// TestPprofLabels pins the pprof labels CPU profiles split serving by:
// each batcher worker wears its model's label from the start, parked ones
// included, and once a batch has run on two modelled IPUs the shard
// worker of the plan it built wears ipu=1 beside the model's label.
func TestPprofLabels(t *testing.T) {
	const name = "labelled"
	reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 8, Workers: 2}, NumIPUs: 2, Shards: 2})
	t.Cleanup(reg.Close)
	m, err := reg.Register(spec(name, nn.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%q:%q", "model", name)
	// A new worker shows in the profile once it has first run; poll.
	var workers []string
	mine := 0
	for deadline := time.Now().Add(2 * time.Second); mine < 2 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		workers, mine = goroutineLabels(t, "serve.(*Batcher).work"), 0
		for _, l := range workers {
			if strings.Contains(l, want) {
				mine++
			}
		}
	}
	if mine != 2 {
		t.Fatalf("%d parked batcher workers carry %s, want the model's 2 (labels %q)", mine, want, workers)
	}

	// Only this model's workers: other tests' closed plans may still be
	// exiting.
	shardWorkers := func(when string) {
		t.Helper()
		shards := goroutineLabels(t, "shard.(*ShardedPlan).workerLoop")
		mine := 0
		for _, l := range shards {
			if !strings.Contains(l, want) {
				continue
			}
			mine++
			if !strings.Contains(l, `"ipu":"1"`) {
				t.Errorf("a shard worker of the model carries labels %s %s, no ipu=1", l, when)
			}
		}
		if mine != 1 {
			t.Fatalf("%d shard workers carry %s %s on 2 IPUs, want 1 (labels %q)", mine, want, when, shards)
		}
	}
	// Ready builds the probe plan, as a /healthz handler does, and runs
	// no batch on it: its worker must wear its labels from its start.
	if ok, msg := m.Ready(); !ok {
		t.Fatalf("Ready: %s", msg)
	}
	shardWorkers("after Ready, before any batch")
	if _, err := m.Predict(context.Background(), obsTestFeatures(m.spec.N)); err != nil {
		t.Fatal(err)
	}
	shardWorkers("after one batch")
}
