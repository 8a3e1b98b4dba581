package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
