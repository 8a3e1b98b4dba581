package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
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

	// Two same-size predictions: the second finds its bucket priced.
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
		t.Fatalf("cost lookup hits = %d, want >= 1 after repeated same-size load", st.Cache.Hits)
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

// TestHTTPPredictUncompilableModelFails pins the one inference path: a
// network whose plan cannot compile (a Sequential led by a ReLU, which
// declares no input width) is refused at install with its lowering
// error, so /predict does not know its name; and a model whose plan fails
// (its Execute panics, as a kernel bug would) answers /predict with a 500
// and one JSON error object rather than scores from Sequential.Infer, the
// failure counts in ipuserve_errors_total, and closing the registry
// leaves no goroutine behind.
func TestHTTPPredictUncompilableModelFails(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 8, Workers: 2}})
	sp := spec("relu-led", nn.Baseline)
	net := nn.NewSequential(nn.NewReLU(), nn.NewDense(sp.N, sp.Classes, rand.New(rand.NewSource(1))))
	if _, err := reg.install(sp, net, sp.Method.String(), nil, 0); err == nil || !strings.Contains(err.Error(), "lowering") {
		t.Fatalf("installing a network that does not lower: err = %v, want its lowering error", err)
	}
	ts := httptest.NewServer(NewServer(reg))
	resp := postPredict(t, ts.URL, PredictRequest{Model: sp.Name, Features: make([]float32, sp.N)})
	assertJSONError(t, resp, http.StatusNotFound)
	resp.Body.Close()

	sp = spec("failing", nn.Baseline)
	m, err := reg.Register(sp)
	if err != nil {
		t.Fatal(err)
	}
	m.progs[0].PutPlan(&panicPlan{})
	resp = postPredict(t, ts.URL, PredictRequest{Model: sp.Name, Features: make([]float32, sp.N)})
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, body)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var eb errorBody
	if err := dec.Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("body %q is not a JSON error object (%v)", body, err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		t.Fatalf("body %q carries data after its JSON error object", body)
	}
	if m := scrapeBody(t, ts.URL+"/metrics", http.StatusOK); !strings.Contains(m, `ipuserve_errors_total{model="failing"} 1`+"\n") {
		t.Fatalf("ipuserve_errors_total does not count the failure:\n%s", m)
	}

	ts.Close()
	reg.Close()
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines 2 s after the registry closed, %d before it opened", n, before)
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

// TestHTTPPredictBodyLimit sends well-formed requests just over
// maxPredictBody: they must be cut off with a 413 and a JSON error body,
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
	// The body is read whole under the cap, so whitespace that carries an
	// object under the cap past it is a 413 too.
	for _, tc := range []struct {
		size, pad, code int
	}{
		{maxPredictBody, 0, http.StatusBadRequest},
		{maxPredictBody + 64, 0, http.StatusRequestEntityTooLarge},
		{maxPredictBody - 64, 128, http.StatusRequestEntityTooLarge},
	} {
		raw := append(body(tc.size), strings.Repeat(" ", tc.pad)...)
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		assertJSONError(t, resp, tc.code)
		resp.Body.Close()
	}
}

// TestHTTPPredictFallbackShapes sends bodies the one-pass scanner declines
// through the handler: each must get the status and error message that
// encoding/json alone gave them.
func TestHTTPPredictFallbackShapes(t *testing.T) {
	reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 8, Workers: 2}})
	t.Cleanup(reg.Close)
	if _, err := reg.Register(spec("m", nn.Baseline)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	zeros := "0" + strings.Repeat(",0", 63)
	for _, tc := range []struct {
		name, body string
		code       int
		err        string
	}{
		{"mixed-case key", `{"Model":"m","features":[` + zeros + `]}`, http.StatusOK, ""},
		{"escaped model", `{"model":"\u006d","features":[` + zeros + `]}`, http.StatusOK, ""},
		{"non-ASCII model", `{"model":"mÃ©","features":[` + zeros + `]}`, http.StatusNotFound, `unknown model "mÃ©"`},
		{"unknown key", `{"model":"m","features":[` + zeros + `],"shards":2}`, http.StatusOK, ""},
		{"null features", `{"model":"m","features":null}`, http.StatusBadRequest,
			`serve: bad input: model "m" expects 64 features, got 0`},
		{"out of float32 range", `{"model":"m","features":[1e39,` + zeros[2:] + `]}`, http.StatusBadRequest,
			"bad request body: json: cannot unmarshal number 1e39 into Go struct field PredictRequest.features of type float32"},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Fatalf("%s: status %d, want %d; body %s", tc.name, rec.Code, tc.code, rec.Body)
		}
		if tc.err == "" {
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error != tc.err {
			t.Fatalf("%s: error body %s (%v), want error %q", tc.name, rec.Body, err, tc.err)
		}
	}
}

// TestHTTPPredictConcurrentBodies sends many distinct bodies for two
// models at once: every response must carry the scores of its own body's
// features, bit for bit, so no request reads a pooled body buffer that
// another request has since refilled.
func TestHTTPPredictConcurrentBodies(t *testing.T) {
	ts, reg := testServer(t)
	names := []string{"bf", "ff"}
	var nets []*nn.Sequential
	for i, method := range []nn.Method{nn.Butterfly, nn.Fastfood} {
		sp := spec(names[i], method)
		if _, err := reg.Register(sp); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nn.BuildSHL(method, sp.N, sp.Classes, rand.New(rand.NewSource(sp.Seed))))
	}
	const clients, perClient = 8, 12
	bodies := make([][]byte, clients*perClient)
	want := make([][]float32, len(bodies))
	rng := rand.New(rand.NewSource(7))
	for i := range bodies {
		x := tensor.New(1, 64)
		x.FillRandom(rng, 1)
		m := rng.Intn(len(names))
		raw, err := json.Marshal(PredictRequest{Model: names[m], Features: x.Data})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], want[i] = raw, nets[m].Infer(x).Row(0)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(bodies); i += clients {
				resp, err := ts.Client().Post(ts.URL+"/predict", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				var pred Prediction
				err = json.NewDecoder(resp.Body).Decode(&pred)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("body %d: status %d, decode error %v", i, resp.StatusCode, err)
					return
				}
				if len(pred.Scores) != len(want[i]) {
					t.Errorf("body %d: %d scores, want %d", i, len(pred.Scores), len(want[i]))
					return
				}
				for j, v := range pred.Scores {
					if math.Float32bits(v) != math.Float32bits(want[i][j]) {
						t.Errorf("body %d: score %d = %v, want %v", i, j, v, want[i][j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestHTTPMethodNotAllowedAllow checks that every 405 names the method the
// endpoint takes in an Allow header (RFC 9110 §15.5.6) and carries a JSON
// error.
func TestHTTPMethodNotAllowedAllow(t *testing.T) {
	ts, _ := testServer(t)
	for _, tc := range []struct{ method, path, allow string }{
		{http.MethodGet, "/predict", http.MethodPost},
		{http.MethodPut, "/predict", http.MethodPost},
		{http.MethodPost, "/models", http.MethodGet},
		{http.MethodPost, "/stats", http.MethodGet},
		{http.MethodPost, "/metrics", http.MethodGet},
		{http.MethodPost, "/debug/traces", http.MethodGet},
		{http.MethodPost, "/debug/timeline", http.MethodGet},
		{http.MethodPost, "/debug/costmodel", http.MethodGet},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		assertJSONError(t, resp, http.StatusMethodNotAllowed)
		resp.Body.Close()
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}
