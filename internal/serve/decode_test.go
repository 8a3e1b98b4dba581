package serve

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzDecodePredict checks the one-pass scanner against encoding/json.
// scanPredict may decline any body, but it must never accept a body that
// decodePredictJSON rejects, and where both accept one they must agree on
// the model name, the feature count, whether the features are nil and
// every feature's float32 bits.
func FuzzDecodePredict(f *testing.F) {
	valid, err := json.Marshal(PredictRequest{Model: "bf", Features: []float32{0.5, -1.25e-7, 3, 0}})
	if err != nil {
		f.Fatal(err)
	}
	num := func(n string) string { return `{"model":"bf","features":[1,` + n + `]}` }
	decline := []string{
		`{"Model":"bf","features":[1]}`,
		`{"model":"b\u0066","features":[1]}`,
		`{"model":"bé","features":[1]}`,
		`{"model":"bf","features":[1],"shards":2}`,
		`{"model":"bf","model":"bf","features":[1]}`,
		`{"model":"bf","features":null}`,
		num("01"), num("+1"), num(".5"), num("1."), num("NaN"), num("0x1p0"), num("1_0"), num("1e39"),
		string(valid) + `{}`,
	}
	accept := []string{
		string(valid),
		`{"features":[1,2],"model":"bf"}`,
		" \t\r\n{ \n\"model\"\t:\r\"bf\" ,\n \"features\" :\n[ 1 ,\t-2.5E-3\r, -0 ] \n}\n\t ",
		`{"model":"bf","features":[]}`,
		`{"model":"bf"}`,
	}
	for _, body := range decline {
		if _, ok := scanPredict([]byte(body)); ok {
			f.Fatalf("scanPredict accepted %s; it must leave it to encoding/json", body)
		}
		f.Add([]byte(body))
	}
	for _, body := range accept {
		if _, ok := scanPredict([]byte(body)); !ok {
			f.Fatalf("scanPredict declined %q", body)
		}
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanPredict(body)
		if !ok {
			return
		}
		want, err := decodePredictJSON(body)
		if err != nil {
			t.Fatalf("scanPredict accepted %q, which encoding/json rejects: %v", body, err)
		}
		if got.Model != want.Model || len(got.Features) != len(want.Features) || (got.Features == nil) != (want.Features == nil) {
			t.Fatalf("body %q: scanPredict read model %q with %d features (nil %t), encoding/json %q with %d (nil %t)",
				body, got.Model, len(got.Features), got.Features == nil, want.Model, len(want.Features), want.Features == nil)
		}
		for i, v := range got.Features {
			if math.Float32bits(v) != math.Float32bits(want.Features[i]) {
				t.Fatalf("body %q: feature %d is %v from scanPredict, %v from encoding/json", body, i, v, want.Features[i])
			}
		}
	})
}

// TestDecodePredictAllocs pins the allocations of decoding a 1024-feature
// body to the feature slice and the model name; the request itself stays
// on the stack, since only the encoding/json fallback takes its address.
func TestDecodePredictAllocs(t *testing.T) {
	body, err := json.Marshal(PredictRequest{Model: "butterfly", Features: benchFeatures(1024)})
	if err != nil {
		t.Fatal(err)
	}
	var req PredictRequest
	allocs := testing.AllocsPerRun(50, func() { req, err = decodePredict(body) })
	if err != nil || req.Model != "butterfly" || len(req.Features) != 1024 {
		t.Fatalf("decodePredict = model %q, %d features, error %v", req.Model, len(req.Features), err)
	}
	if allocs > 2 {
		t.Fatalf("decoding a 1024-feature body makes %v allocations, want at most 2", allocs)
	}
}
