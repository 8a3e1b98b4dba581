package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/nn"
)

func testServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry(Options{
		Batcher: BatcherConfig{MaxBatch: 8, Workers: 2},
	})
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(ts.Close)
	return ts, reg
}

func postPredict(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPPredict(t *testing.T) {
	ts, reg := testServer(t)
	if _, err := reg.Register(spec("bfly", nn.Butterfly)); err != nil {
		t.Fatal(err)
	}
	features := make([]float32, 64)
	for i := range features {
		features[i] = 0.5
	}
	resp := postPredict(t, ts.URL, PredictRequest{Model: "bfly", Features: features})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var pred Prediction
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if pred.Model != "bfly" || len(pred.Scores) != 10 || pred.BatchSize < 1 {
		t.Fatalf("bad prediction: %+v", pred)
	}
	if pred.IPU == nil || pred.IPU.LatencySeconds <= 0 {
		t.Fatalf("missing IPU cost: %+v", pred.IPU)
	}
}

func TestHTTPPredictErrors(t *testing.T) {
	ts, reg := testServer(t)
	if _, err := reg.Register(spec("m", nn.Baseline)); err != nil {
		t.Fatal(err)
	}

	resp := postPredict(t, ts.URL, PredictRequest{Model: "nope", Features: make([]float32, 64)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status = %d, want 404", resp.StatusCode)
	}

	resp = postPredict(t, ts.URL, PredictRequest{Model: "m", Features: make([]float32, 3)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong width status = %d, want 400", resp.StatusCode)
	}

	r, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status = %d, want 400", r.StatusCode)
	}

	// A body is one JSON object: trailing bytes or a second object after
	// a valid request are a 400 with a JSON error, not silently dropped.
	valid, err := json.Marshal(PredictRequest{Model: "m", Features: make([]float32, 64)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{" trailing garbage", `{"model":"nope"}`} {
		r, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(string(valid)+tail))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		decErr := json.NewDecoder(r.Body).Decode(&eb)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest || decErr != nil || eb.Error == "" {
			t.Fatalf("body with tail %q: status %d, error body %+v (%v); want 400 with a JSON error", tail, r.StatusCode, eb, decErr)
		}
	}
	r, err = http.Post(ts.URL+"/predict", "application/json", strings.NewReader(string(valid)+" \n\t"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace status = %d, want 200", r.StatusCode)
	}

	g, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict status = %d, want 405", g.StatusCode)
	}
}

func TestHTTPModelsAndStats(t *testing.T) {
	ts, reg := testServer(t)
	if _, err := reg.Register(spec("a", nn.Baseline)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(spec("b", nn.Pixelfly)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("bad /models response: %+v", infos)
	}

	// Two same-size predictions: second must hit the program cache.
	features := make([]float32, 64)
	for i := 0; i < 2; i++ {
		r := postPredict(t, ts.URL, PredictRequest{Model: "a", Features: features})
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("predict %d status = %d", i, r.StatusCode)
		}
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Cache.Hits < 1 {
		t.Fatalf("program cache hits = %d, want >= 1 after repeated same-size load", st.Cache.Hits)
	}
	if len(st.Models) != 2 {
		t.Fatalf("stats for %d models, want 2", len(st.Models))
	}
	var a ModelStats
	for _, ms := range st.Models {
		if ms.Info.Name == "a" {
			a = ms
		}
	}
	if a.Served != 2 || a.Latency.Count != 2 {
		t.Fatalf("model a stats: %+v", a)
	}
}

// assertJSONError fails unless resp has the given status and a JSON body
// whose error field is set.
func assertJSONError(t *testing.T, resp *http.Response, code int) {
	t.Helper()
	if resp.StatusCode != code {
		t.Fatalf("status = %d, want %d", resp.StatusCode, code)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("want a JSON error body, got err %v body %+v", err, body)
	}
}

// TestHTTPPredictNonFiniteScores feeds finite features large enough to
// overflow the dense model's scores to ±Inf/NaN, which JSON cannot carry:
// the answer must be a typed 422 with a JSON error body, never a 200 whose
// body the encoder then fails to write.
func TestHTTPPredictNonFiniteScores(t *testing.T) {
	ts, reg := testServer(t)
	if _, err := reg.Register(spec("m", nn.Baseline)); err != nil {
		t.Fatal(err)
	}
	features := make([]float32, 64)
	for i := range features {
		features[i] = 3e38
		if i%2 == 1 {
			features[i] = -3e38
		}
	}
	resp := postPredict(t, ts.URL, PredictRequest{Model: "m", Features: features})
	defer resp.Body.Close()
	assertJSONError(t, resp, http.StatusUnprocessableEntity)

	m, _ := reg.Get("m")
	if _, err := m.Predict(context.Background(), features); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Predict error = %v, want ErrNonFinite", err)
	}
}

// TestHTTPPredictBodyLimit sends a well-formed request just over
// maxPredictBody: it must be cut off with a 413 and a JSON error body,
// while one just under the limit still decodes (and fails only on width).
func TestHTTPPredictBodyLimit(t *testing.T) {
	ts, reg := testServer(t)
	if _, err := reg.Register(spec("m", nn.Baseline)); err != nil {
		t.Fatal(err)
	}
	body := func(size int) []byte {
		head, tail := `{"model":"m","features":[`, `0]}`
		b := []byte(head + strings.Repeat("0,", (size-len(head)-len(tail))/2) + tail)
		if len(b) > size {
			t.Fatalf("built %d bytes for a %d-byte body", len(b), size)
		}
		return b
	}
	for _, tc := range []struct {
		size, code int
	}{{maxPredictBody, http.StatusBadRequest}, {maxPredictBody + 64, http.StatusRequestEntityTooLarge}} {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body(tc.size)))
		if err != nil {
			t.Fatal(err)
		}
		assertJSONError(t, resp, tc.code)
		resp.Body.Close()
	}
}
