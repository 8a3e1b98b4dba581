package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

// Server exposes a Registry over an HTTP JSON API:
//
//	POST /predict          {"model": "butterfly", "features": [ ... N floats ]}
//	GET  /models           → registered models
//	GET  /stats            → per-model serving stats + program-cache counters
//	GET  /metrics          → Prometheus text exposition of the obs registry
//	GET  /debug/traces     → the last-N sampled request traces
//	                         (?model=<name> filters, ?limit=<n> caps)
//	GET  /debug/timeline   → per-model BSP phase utilization summary
//	                         (?model=<name> filters; ?format=chrome emits
//	                         Chrome trace-event JSON for Perfetto)
//	GET  /debug/costmodel  → modelled vs measured per-step cost, worst drift first
//	GET  /healthz          → readiness probe: "ok" when any model is servable
//	                         (?verbose=1 for per-model JSON), 503 + JSON otherwise
type Server struct {
	reg     *Registry
	mux     *http.ServeMux
	started time.Time

	obs        *obs.Registry
	tracer     *obs.Tracer
	encodeErrs *obs.Counter
}

// NewServer wraps a registry in the HTTP API.
func NewServer(reg *Registry) *Server {
	s := &Server{
		reg:     reg,
		mux:     http.NewServeMux(),
		started: time.Now(),
		obs:     reg.Obs(),
		tracer:  reg.Tracer(),
	}
	s.encodeErrs = s.obs.Counter(metEncodeErrs)
	s.obs.GaugeFunc(metUptime, func() float64 { return time.Since(s.started).Seconds() })
	s.handle("/predict", s.handlePredict)
	s.handle("/models", s.handleModels)
	s.handle("/stats", s.handleStats)
	s.handle("/metrics", s.handleMetrics)
	s.handle("/debug/traces", s.handleTraces)
	s.handle("/debug/timeline", s.handleTimeline)
	s.handle("/debug/costmodel", s.handleCostModel)
	s.handle("/healthz", s.handleHealthz)
	return s
}

// handle mounts a handler with a per-path request counter (created once
// here, incremented per request).
func (s *Server) handle(path string, h http.HandlerFunc) {
	c := s.obs.Counter(metHTTPRequests, obs.L{Key: "path", Value: path})
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h(w, r)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// PredictRequest is the /predict request body.
type PredictRequest struct {
	Model    string    `json:"model"`
	Features []float32 `json:"features"`
}

type errorBody struct {
	Error string `json:"error"`
}

// maxPredictBody caps a /predict request body. A 1024-feature request is
// about 20 KB, so 1 MiB leaves room for wide models while bounding what
// one request can make the server buffer.
const maxPredictBody = 1 << 20

// errTrailingData rejects a /predict body that carries anything but
// whitespace after its JSON object.
var errTrailingData = errors.New("trailing data after the JSON object")

// jsonBufs recycles /predict body and response buffers.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBuf returns buf to jsonBufs, unless a large body or debug response
// grew it past 64 KiB: such a buffer is dropped rather than pinned.
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= 64<<10 {
		jsonBufs.Put(buf)
	}
}

// allowOnly answers a request whose method is not method with a 405, an
// Allow header and a JSON error, and reports whether the method matched.
func (s *Server) allowOnly(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{method + " required"})
	return false
}

// writeJSON encodes v into a buffer and only then sends the status and
// body, so an encoding failure never follows a committed status: it is
// counted, logged and answered with a 500 and a JSON error body instead.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.encodeErrs.Inc()
		log.Printf("serve: encoding %T response: %v", v, err)
		buf.Reset()
		code = http.StatusInternalServerError
		enc.Encode(errorBody{fmt.Sprintf("encoding response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
	putBuf(buf)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !s.allowOnly(w, r, http.MethodPost) {
		return
	}
	t0 := time.Now()
	// The body is read whole under the cap before it is decoded, so every
	// body over maxPredictBody is a 413, whatever it holds.
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxPredictBody))
	var req PredictRequest
	if err == nil {
		req, err = decodePredict(buf.Bytes())
	}
	putBuf(buf) // the request holds copies of the model name and features
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		s.writeJSON(w, code, errorBody{fmt.Sprintf("bad request body: %v", err)})
		return
	}
	// Sampled requests get a trace covering the whole HTTP round trip;
	// Predict adds the queue/execute/step spans via the context. The HTTP
	// layer owns the trace, so it finishes it. The context carries the
	// sampling decision even when negative: otherwise Predict's
	// self-sampling fallback advances the shared counter a second time
	// per request, and with an even sampling period the HTTP layer's
	// draws only ever land on odd counts — no trace would ever carry the
	// http_decode/http_write spans.
	ctx := r.Context()
	tr := s.tracer.Sample(req.Model)
	if tr != nil {
		tr.Start = t0 // backdate so the decode is inside the trace window
		tr.AddSpanAt("http_decode", t0, time.Since(t0))
	}
	ctx = obs.WithTrace(ctx, tr)
	m, ok := s.reg.Get(req.Model)
	if !ok {
		if tr != nil {
			tr.Error = "unknown model"
			s.tracer.Finish(tr)
		}
		s.writeJSON(w, http.StatusNotFound, errorBody{fmt.Sprintf("unknown model %q", req.Model)})
		return
	}
	pred, err := m.Predict(ctx, req.Features)
	wstart := time.Now()
	switch {
	case err == nil:
		s.writeJSON(w, http.StatusOK, pred)
	case errors.Is(err, ErrStopped):
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	case errors.Is(err, ErrBadInput):
		s.writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
	case errors.Is(err, ErrNonFinite):
		s.writeJSON(w, http.StatusUnprocessableEntity, errorBody{err.Error()})
	default:
		s.writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
	}
	if tr != nil {
		tr.AddSpanAt("http_write", wstart, time.Since(wstart))
		s.tracer.Finish(tr)
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !s.allowOnly(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, s.reg.List())
}

// StatsResponse is the /stats response body.
type StatsResponse struct {
	UptimeSeconds float64      `json:"uptime_s"`
	Cache         CacheStats   `json:"program_cache"`
	Models        []ModelStats `json:"models"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.allowOnly(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Cache:         s.reg.CacheStats(),
		Models:        s.reg.Stats(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.allowOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.obs.WritePrometheus(w); err != nil {
		log.Printf("serve: writing /metrics: %v", err)
	}
}

// TracesResponse is the /debug/traces response body.
type TracesResponse struct {
	// SampleEvery is the sampling period (one trace per N requests);
	// 0 means tracing is disabled.
	SampleEvery int `json:"sample_every"`
	// SampledRate is the fraction of requests traced (1/SampleEvery;
	// 0 when tracing is disabled) — the scale factor for extrapolating
	// trace-derived counts back to the full request stream.
	SampledRate float64           `json:"sampled_rate"`
	Traces      []obs.TraceRecord `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if !s.allowOnly(w, r, http.MethodGet) {
		return
	}
	resp := TracesResponse{Traces: s.tracer.Snapshot()}
	if s.tracer != nil {
		resp.SampleEvery = s.tracer.SampleEvery()
		if resp.SampleEvery > 0 {
			resp.SampledRate = 1 / float64(resp.SampleEvery)
		}
	}
	// ?model= narrows the ring to one model's traces; ?limit= keeps only
	// the most recent n of what remains (the snapshot is oldest-first).
	if model := r.URL.Query().Get("model"); model != "" {
		kept := resp.Traces[:0]
		for _, tr := range resp.Traces {
			if tr.Model == model {
				kept = append(kept, tr)
			}
		}
		resp.Traces = kept
	}
	if limStr := r.URL.Query().Get("limit"); limStr != "" {
		lim, err := strconv.Atoi(limStr)
		if err != nil || lim < 0 {
			s.writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad limit %q", limStr)})
			return
		}
		if lim < len(resp.Traces) {
			resp.Traces = resp.Traces[len(resp.Traces)-lim:]
		}
	}
	if resp.Traces == nil {
		resp.Traces = []obs.TraceRecord{}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// TimelineResponse is the /debug/timeline JSON response body.
type TimelineResponse struct {
	// SampleEvery is the batch sampling period (one timeline per N
	// executed batches); 0 means timelines are disabled.
	SampleEvery int `json:"sample_every"`
	// Models carries one phase-utilization summary per model that has
	// sampled at least one batch.
	Models []TimelineSummary `json:"models"`
}

// handleTimeline serves the flight recorder: by default the per-model
// phase-utilization summaries (measured seconds and shares per modelled
// IPU and BSP phase, modelled-vs-measured compute/exchange), with
// ?format=chrome the retained batch timelines as Chrome trace-event
// JSON (one process per model, one track per modelled IPU) loadable in
// Perfetto or chrome://tracing. ?model= restricts either view.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if !s.allowOnly(w, r, http.MethodGet) {
		return
	}
	filter := r.URL.Query().Get("model")
	models := s.reg.Models()
	if r.URL.Query().Get("format") == "chrome" {
		procs := []timeline.ChromeProcess{}
		for _, m := range models {
			if filter != "" && m.Info().Name != filter {
				continue
			}
			if proc, ok := m.TimelineProcess(); ok {
				procs = append(procs, proc)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="timeline.json"`)
		if err := timeline.WriteChrome(w, procs); err != nil {
			s.encodeErrs.Inc()
			log.Printf("serve: writing chrome trace: %v", err)
		}
		return
	}
	resp := TimelineResponse{Models: []TimelineSummary{}}
	for _, m := range models {
		if filter != "" && m.Info().Name != filter {
			continue
		}
		if rec := m.Timeline(); rec != nil && resp.SampleEvery == 0 {
			resp.SampleEvery = rec.SampleEvery()
		}
		if sum, ok := m.TimelineSummary(); ok {
			resp.Models = append(resp.Models, sum)
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ModelCostDrift is one model's block of the /debug/costmodel response.
type ModelCostDrift struct {
	Model  string `json:"model"`
	Shards int    `json:"shards"`
	// Steps lists modelled vs measured per-step cost, worst drift first;
	// empty until the model has executed its first batch.
	Steps []StepCostDrift `json:"steps"`
}

// CostModelResponse is the /debug/costmodel response body: per model, the
// modelled IPU cost of every plan step next to its measured per-row
// wall-clock. Models are ordered by their worst step's drift, worst first.
type CostModelResponse struct {
	Models []ModelCostDrift `json:"models"`
}

func (s *Server) handleCostModel(w http.ResponseWriter, r *http.Request) {
	if !s.allowOnly(w, r, http.MethodGet) {
		return
	}
	resp := CostModelResponse{Models: []ModelCostDrift{}}
	for _, m := range s.reg.Models() {
		steps := m.CostModelReport()
		if steps == nil {
			steps = []StepCostDrift{}
		}
		resp.Models = append(resp.Models, ModelCostDrift{
			Model:  m.Info().Name,
			Shards: m.Shards(),
			Steps:  steps,
		})
	}
	worst := func(md ModelCostDrift) float64 {
		if len(md.Steps) == 0 {
			return -1
		}
		return driftDist(md.Steps[0].Ratio) // steps are already worst-first
	}
	sort.SliceStable(resp.Models, func(i, j int) bool { return worst(resp.Models[i]) > worst(resp.Models[j]) })
	s.writeJSON(w, http.StatusOK, resp)
}

// HealthResponse is the JSON /healthz body (verbose or unhealthy paths).
type HealthResponse struct {
	Status string        `json:"status"` // "ok" or "unavailable"
	Models []ModelHealth `json:"models"`
}

// handleHealthz reports per-model readiness: 200 when at least one model
// is servable (bare "ok" unless ?verbose=1 asks for the JSON detail — the
// fast path probes stay on), 503 with the per-model JSON when none is.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	health := s.reg.Health()
	servable := false
	for _, h := range health {
		if h.Ready {
			servable = true
			break
		}
	}
	if servable && r.URL.Query().Get("verbose") == "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
		return
	}
	resp := HealthResponse{Status: "ok", Models: health}
	if resp.Models == nil {
		resp.Models = []ModelHealth{}
	}
	code := http.StatusOK
	if !servable {
		resp.Status = "unavailable"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, resp)
}
