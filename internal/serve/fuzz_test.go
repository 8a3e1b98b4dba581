package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/nn"
)

// FuzzPredictHTTP throws arbitrary bodies at the whole /predict handler
// of a server holding a small butterfly model and a fastfood model
// (unsplittable, so pipelined), both on two modelled IPUs with every
// batch's frame derived into a timeline, and checks the response
// contract: only statuses /predict documents, every error one JSON
// {"error": …} object, and every 200 one complete Prediction carrying
// finite class scores.
func FuzzPredictHTTP(f *testing.F) {
	const n, classes = 16, 4
	reg := NewRegistry(Options{
		Batcher:             BatcherConfig{MaxBatch: 4, Workers: 2},
		NumIPUs:             2,
		Shards:              2,
		TimelineSampleEvery: 1,
		TraceSampleEvery:    7, // some requests also derive trace step spans
	})
	f.Cleanup(reg.Close)
	for _, sp := range []ModelSpec{
		{Name: "bf", Method: nn.Butterfly, N: n, Classes: classes, Seed: 1},
		{Name: "pipe", Method: nn.Fastfood, N: n, Classes: classes, Seed: 2},
	} {
		if _, err := reg.Register(sp); err != nil {
			f.Fatal(err)
		}
	}
	srv := NewServer(reg)

	body := func(model string, features []float32) []byte {
		raw, err := json.Marshal(PredictRequest{Model: model, Features: features})
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	ones := make([]float32, n)
	for i := range ones {
		ones[i] = 1
	}
	f.Add(body("bf", ones))
	f.Add(body("pipe", ones))
	f.Add(body("bf", ones[:n-1]))
	f.Add(append(body("pipe", ones), "{}"...))
	f.Add([]byte(`{"model":"bf","features":[` + strings.Repeat("0,", maxPredictBody/2) + `0]}`))
	f.Add([]byte(`{"model":"pipe","features":[1e39` + strings.Repeat(",0", n-1) + `]}`))
	f.Add([]byte(`{"model":"nope","features":[]}`))

	documented := map[int]bool{200: true, 400: true, 404: true, 413: true, 422: true, 503: true}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(raw)))
		if !documented[rec.Code] {
			t.Fatalf("status %d is not one /predict documents; body %q", rec.Code, rec.Body.String())
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		if rec.Code != http.StatusOK {
			var eb errorBody
			if err := dec.Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d body %q is not one JSON error object (%v)", rec.Code, rec.Body.String(), err)
			}
		} else {
			var p Prediction
			if err := dec.Decode(&p); err != nil {
				t.Fatalf("200 body %q does not decode as a Prediction: %v", rec.Body.String(), err)
			}
			if len(p.Scores) != classes {
				t.Fatalf("200 carries %d scores, want %d", len(p.Scores), classes)
			}
			for _, v := range p.Scores {
				if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
					t.Fatalf("200 carries a non-finite score: %v", p.Scores)
				}
			}
		}
		if _, err := dec.Token(); !errors.Is(err, io.EOF) {
			t.Fatalf("status %d body %q carries data after its JSON object", rec.Code, rec.Body.String())
		}
	})
}
