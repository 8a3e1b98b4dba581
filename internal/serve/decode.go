package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
)

// decodePredict decodes one /predict body. Clients send one shape,
// {"model": <plain string>, "features": [<numbers>]}, which scanPredict
// reads in one pass; it declines every other body, and encoding/json then
// decodes it or writes the error message.
func decodePredict(body []byte) (PredictRequest, error) {
	if req, ok := scanPredict(body); ok {
		return req, nil
	}
	return decodePredictJSON(body)
}

// decodePredictJSON decodes body with encoding/json and rejects anything
// but whitespace after the JSON object. It is the reference scanPredict
// must agree with wherever both accept a body.
func decodePredictJSON(body []byte) (PredictRequest, error) {
	var req PredictRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return PredictRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return PredictRequest{}, errTrailingData
	}
	return req, nil
}

// scanPredict reads a body holding one JSON object with the keys "model"
// and "features", each at most once and in either order, and nothing but
// whitespace after it. A missing key leaves its zero value, as
// encoding/json does. It declines (returns false) whatever encoding/json might
// read differently: keys in another case, which encoding/json matches
// case-insensitively; a model name with an escape, a control byte or a
// non-ASCII byte; features that are not an array of JSON numbers each
// within float32 range; and any other key.
func scanPredict(body []byte) (PredictRequest, bool) {
	s := scanner{b: body}
	if !s.next('{') {
		return PredictRequest{}, false
	}
	var req PredictRequest
	var haveModel, haveFeatures bool
	for !s.next('}') {
		if (haveModel || haveFeatures) && !s.next(',') {
			return PredictRequest{}, false
		}
		key, ok := s.plainString()
		if !ok || !s.next(':') {
			return PredictRequest{}, false
		}
		switch {
		case string(key) == "model" && !haveModel:
			haveModel = true
			model, ok := s.plainString()
			if !ok {
				return PredictRequest{}, false
			}
			req.Model = string(model)
		case string(key) == "features" && !haveFeatures:
			haveFeatures = true
			if req.Features, ok = s.features(); !ok {
				return PredictRequest{}, false
			}
		default:
			return PredictRequest{}, false
		}
	}
	s.skipSpace()
	return req, s.i == len(s.b)
}

// scanner is a read position in a /predict body.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// next skips whitespace and then consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.skipSpace()
	return s.take(c)
}

// take consumes c if it is the next byte.
func (s *scanner) take(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// plainString reads a JSON string of printable ASCII without escapes and
// returns its contents, which alias the body.
func (s *scanner) plainString() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// features reads an array of JSON numbers into a slice sized once from
// the commas before the first ']'. An empty array gives an empty, non-nil
// slice, as encoding/json does.
func (s *scanner) features() ([]float32, bool) {
	if !s.next('[') {
		return nil, false
	}
	if s.next(']') {
		return []float32{}, true
	}
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	out := make([]float32, 1+bytes.Count(s.b[s.i:s.i+end], []byte{','}))
	for k := range out {
		if k > 0 && !s.next(',') {
			return nil, false
		}
		s.skipSpace()
		start := s.i
		if !s.number() {
			return nil, false
		}
		// The call encoding/json makes for a float32 field, so the bits
		// match; a range error declines, leaving encoding/json's message.
		f, err := strconv.ParseFloat(string(s.b[start:s.i]), 32)
		if err != nil {
			return nil, false
		}
		out[k] = float32(f)
	}
	return out, s.next(']')
}

// number consumes one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv.ParseFloat alone
// also takes leading zeros, '+', ".5", "1.", NaN, Inf, hex and '_'.
func (s *scanner) number() bool {
	s.take('-')
	if !s.take('0') && !s.digits() {
		return false
	}
	if s.take('.') && !s.digits() {
		return false
	}
	if s.take('e') || s.take('E') {
		if !s.take('+') {
			s.take('-')
		}
		return s.digits()
	}
	return true
}
