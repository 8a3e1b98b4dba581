package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs/timeline"
)

// timelineRegistry serves one model on two modelled IPUs with the flight
// recorder sampling every batch.
func timelineRegistry(t *testing.T, sp ModelSpec) *Registry {
	t.Helper()
	reg := NewRegistry(Options{
		Batcher:             BatcherConfig{MaxBatch: 8, Workers: 2},
		NumIPUs:             2,
		Shards:              2,
		TimelineSampleEvery: 1,
		TraceSampleEvery:    1,
	})
	t.Cleanup(reg.Close)
	if _, err := reg.Register(sp); err != nil {
		t.Fatal(err)
	}
	return reg
}

func scrapeBody(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, body)
	}
	return string(body)
}

// TestTimelineEndpointPipeline drives a pipeline-sharded model (fastfood
// cannot tensor-parallel split, so two fixed shards force pipeline
// partitioning) and asserts the acceptance criteria end to end: the
// summary shows a nonzero bubble fraction, the Chrome export passes its
// own lint with one track per modelled IPU and visible bubbles, and the
// phase gauges, the per-IPU compute histogram and the kernel-variant
// gauge reach /metrics.
func TestTimelineEndpointPipeline(t *testing.T) {
	sp := spec("ff", nn.Fastfood)
	reg := timelineRegistry(t, sp)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	features := obsTestFeatures(sp.N)
	for i := 0; i < 20; i++ {
		if _, err := reg.Predict(context.Background(), "ff", features); err != nil {
			t.Fatal(err)
		}
	}

	var resp TimelineResponse
	if err := json.Unmarshal([]byte(scrapeBody(t, srv.URL+"/debug/timeline", 200)), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SampleEvery != 1 || len(resp.Models) != 1 {
		t.Fatalf("timeline response: sample_every=%d models=%d, want 1 and 1", resp.SampleEvery, len(resp.Models))
	}
	sum := resp.Models[0]
	if sum.Model != "ff" || sum.Shards != 2 || sum.Strategy != "pipeline" {
		t.Fatalf("summary = %+v, want ff × 2 shards under pipeline", sum)
	}
	if sum.Batches == 0 || len(sum.PerIPU) != 2 {
		t.Fatalf("summary sampled %d batches over %d IPUs, want >0 over 2", sum.Batches, len(sum.PerIPU))
	}
	if sum.BubbleFraction <= 0 {
		t.Fatalf("pipeline bubble fraction = %g, want > 0", sum.BubbleFraction)
	}
	if sum.ComputeShare <= 0 || sum.MeasuredComputeSeconds <= 0 {
		t.Fatalf("compute share %g / measured %gs, want both > 0", sum.ComputeShare, sum.MeasuredComputeSeconds)
	}
	if sum.ModelledComputeSeconds <= 0 {
		t.Fatalf("modelled compute = %g s, want > 0 (meta not installed?)", sum.ModelledComputeSeconds)
	}

	chrome := scrapeBody(t, srv.URL+"/debug/timeline?format=chrome", 200)
	if _, err := timeline.LintChrome([]byte(chrome)); err != nil {
		t.Fatalf("chrome export fails lint: %v\n%s", err, chrome)
	}
	for _, want := range []string{`"ipu0"`, `"ipu1"`, `"bubble/`, "pipeline, 2 shards"} {
		if !strings.Contains(chrome, want) {
			t.Fatalf("chrome export missing %s", want)
		}
	}

	metrics := scrapeBody(t, srv.URL+"/metrics", 200)
	for _, series := range []string{
		`ipuserve_phase_seconds{ipu="0",model="ff",phase="compute"}`,
		`ipuserve_phase_seconds{ipu="1",model="ff",phase="bubble"}`,
		`ipuserve_pipeline_bubble_fraction{model="ff"}`,
		`ipuserve_shard_compute_seconds_bucket{ipu="1",model="ff",le=`,
		`ipuserve_kernel_variant{kernel="fwht",model="ff",variant=`,
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
	// The exported bubble fraction itself must be nonzero for pipeline.
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, `ipuserve_pipeline_bubble_fraction{model="ff"}`) {
			if strings.HasSuffix(strings.TrimSpace(line), " 0") {
				t.Fatalf("exported bubble fraction is zero for a pipeline model: %s", line)
			}
		}
	}
}

// TestTimelineUnshardedNoBubble is the counterpart criterion: a
// single-IPU model records compute only — bubble fraction exactly zero.
func TestTimelineUnshardedNoBubble(t *testing.T) {
	sp := spec("bf", nn.Butterfly)
	reg := NewRegistry(Options{
		Batcher:             BatcherConfig{MaxBatch: 8, Workers: 1},
		TimelineSampleEvery: 1,
	})
	t.Cleanup(reg.Close)
	m, err := reg.Register(sp)
	if err != nil {
		t.Fatal(err)
	}
	features := obsTestFeatures(sp.N)
	for i := 0; i < 5; i++ {
		if _, err := reg.Predict(context.Background(), "bf", features); err != nil {
			t.Fatal(err)
		}
	}
	sum, ok := m.TimelineSummary()
	if !ok {
		t.Fatal("no timeline summary after sampled traffic")
	}
	if sum.Shards != 1 || sum.BubbleFraction != 0 || sum.ComputeShare != 1 {
		t.Fatalf("unsharded summary: shards=%d bubble=%g compute=%g, want 1 / 0 / 1",
			sum.Shards, sum.BubbleFraction, sum.ComputeShare)
	}
}

// TestTimelineDisabled: a negative sampling period turns the recorder
// off entirely — no summaries, an empty chrome export, no phase series.
func TestTimelineDisabled(t *testing.T) {
	reg := NewRegistry(Options{
		Batcher:             BatcherConfig{MaxBatch: 8, Workers: 1},
		TimelineSampleEvery: -1,
	})
	t.Cleanup(reg.Close)
	m, err := reg.Register(spec("bf", nn.Butterfly))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Predict(context.Background(), "bf", obsTestFeatures(64)); err != nil {
		t.Fatal(err)
	}
	if m.Timeline() != nil {
		t.Fatal("recorder installed despite TimelineSampleEvery < 0")
	}
	if _, ok := m.TimelineSummary(); ok {
		t.Fatal("summary reported with timelines disabled")
	}
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()
	var resp TimelineResponse
	if err := json.Unmarshal([]byte(scrapeBody(t, srv.URL+"/debug/timeline", 200)), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SampleEvery != 0 || len(resp.Models) != 0 {
		t.Fatalf("disabled timeline response: %+v", resp)
	}
}

// TestTimelineModelFilter covers ?model= on /debug/timeline for both
// views.
func TestTimelineModelFilter(t *testing.T) {
	reg := timelineRegistry(t, spec("a", nn.Butterfly))
	if _, err := reg.Register(spec("b", nn.Baseline)); err != nil {
		t.Fatal(err)
	}
	features := obsTestFeatures(64)
	for _, name := range []string{"a", "b"} {
		for i := 0; i < 3; i++ {
			if _, err := reg.Predict(context.Background(), name, features); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	var resp TimelineResponse
	if err := json.Unmarshal([]byte(scrapeBody(t, srv.URL+"/debug/timeline?model=b", 200)), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Models) != 1 || resp.Models[0].Model != "b" {
		t.Fatalf("?model=b returned %+v", resp.Models)
	}
	chrome := scrapeBody(t, srv.URL+"/debug/timeline?format=chrome&model=b", 200)
	if strings.Contains(chrome, `"a (`) || !strings.Contains(chrome, `"b (`) {
		t.Fatalf("?model=b chrome export carries the wrong process: %s", chrome)
	}
}

// TestTracesFilterAndLimit covers the /debug/traces query parameters:
// ?model= narrows to one model, ?limit= keeps the most recent n, and a
// malformed limit is a 400.
func TestTracesFilterAndLimit(t *testing.T) {
	reg := timelineRegistry(t, spec("a", nn.Butterfly))
	if _, err := reg.Register(spec("b", nn.Baseline)); err != nil {
		t.Fatal(err)
	}
	features := obsTestFeatures(64)
	for _, name := range []string{"a", "b"} {
		for i := 0; i < 4; i++ {
			if _, err := reg.Predict(context.Background(), name, features); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	get := func(q string) TracesResponse {
		t.Helper()
		var resp TracesResponse
		if err := json.Unmarshal([]byte(scrapeBody(t, srv.URL+"/debug/traces"+q, 200)), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	all := get("")
	if len(all.Traces) < 8 {
		t.Fatalf("sampled-every-request tracer kept %d traces, want >= 8", len(all.Traces))
	}
	only := get("?model=a")
	if len(only.Traces) == 0 {
		t.Fatal("?model=a returned nothing")
	}
	for _, tr := range only.Traces {
		if tr.Model != "a" {
			t.Fatalf("?model=a returned a trace for %q", tr.Model)
		}
	}
	if got := get("?limit=2"); len(got.Traces) != 2 {
		t.Fatalf("?limit=2 returned %d traces", len(got.Traces))
	}
	if got := get("?model=a&limit=1"); len(got.Traces) != 1 || got.Traces[0].Model != "a" {
		t.Fatalf("?model=a&limit=1 returned %+v", got.Traces)
	}
	if got := get("?limit=0"); len(got.Traces) != 0 {
		t.Fatalf("?limit=0 returned %d traces", len(got.Traces))
	}
	scrapeBody(t, srv.URL+"/debug/traces?limit=x", 400)
	scrapeBody(t, srv.URL+"/debug/traces?limit=-1", 400)
}
