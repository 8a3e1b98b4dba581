package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	at    time.Duration // due time, as an offset from the phase start
	model int           // index into the workload's models
	vec   int           // index into the seeded feature vectors
}

// poissonSchedule draws n arrivals of one phase: exponential gaps at rate
// per second, each with a uniformly chosen model and feature vector. The
// same seed gives the same schedule. Phases are sized by count, not by
// time, so a tail percentile always has the samples it needs.
func poissonSchedule(seed int64, rate float64, n, models, vecs int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = arrival{at: time.Duration(t * 1e9), model: rng.Intn(models), vec: rng.Intn(vecs)}
	}
	return out
}

// result is the outcome of one request as the generator saw it.
type result struct {
	lat   time.Duration // due time → handler return (the open-loop latency)
	late  time.Duration // due time → handler entry (generator lateness)
	serve time.Duration // handler entry → handler return (the ServeHTTP span)
	done  time.Duration // handler return, as an offset from the phase start
	code  int
	body  []byte
}

// recorder is a minimal in-memory http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

var predictURL = &url.URL{Path: "/predict"}

// newPredictRequest builds the POST /predict request a client would send,
// without a socket: the handler sees the same method, path, headers and
// body it would over HTTP.
func newPredictRequest(body []byte) *http.Request {
	return &http.Request{
		Method:        http.MethodPost,
		URL:           predictURL,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          "perfbench",
		RequestURI:    "/predict",
	}
}

// runPhase issues the schedule against h, one goroutine per in-flight
// request, and waits for every request to finish. Each request is timed
// from its due time, so a stalled generator or server charges the wait to
// every request behind the stall.
func runPhase(h http.Handler, sched []arrival, bodies [][][]byte, onServe func(sent, end time.Time)) []result {
	res := make([]result, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		a := sched[i]
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			rec := &recorder{h: http.Header{}}
			sent := time.Now()
			h.ServeHTTP(rec, newPredictRequest(bodies[a.model][a.vec]))
			end := time.Now()
			if onServe != nil {
				onServe(sent, end)
			}
			*r = result{
				lat:   end.Sub(due),
				late:  sent.Sub(due),
				serve: end.Sub(sent),
				done:  end.Sub(start),
				code:  rec.code,
				body:  rec.body.Bytes(),
			}
		}(&res[i])
	}
	wg.Wait()
	return res
}

// predictBody is the subset of the /predict response the benchmark checks.
type predictBody struct {
	Model          string    `json:"model"`
	Scores         []float32 `json:"scores"`
	BatchSize      int       `json:"batch_size"`
	LatencySeconds float64   `json:"latency_s"`
}

// verify checks every response of a phase against the reference scores
// bit for bit. It returns the decoded bodies (nil for failed requests) and
// the number of failures: a non-200 status, an undecodable body, a wrong
// model or any score that differs from the reference.
func verify(sched []arrival, res []result, names []string, ref [][][]float32) ([]*predictBody, int) {
	bodies := make([]*predictBody, len(res))
	failed := 0
	for i, r := range res {
		a := sched[i]
		var b predictBody
		if r.code != http.StatusOK || json.Unmarshal(r.body, &b) != nil ||
			b.Model != names[a.model] || b.BatchSize < 1 || !sameBits(b.Scores, ref[a.model][a.vec]) {
			failed++
			continue
		}
		bodies[i] = &b
	}
	return bodies, failed
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks, and whether at least minBeyond
// samples rank above it. A tail percentile is reported only when it is
// backed by at least minBeyond samples beyond it; the median needs none.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := min(lo+1, n-1)
	v := s[lo]
	if frac := rank - float64(lo); frac > 0 && !math.IsInf(s[hi], 1) {
		v += frac * (s[hi] - s[lo])
	} else if frac > 0 {
		v = s[hi]
	}
	return v, beyond(n, p) >= minBeyond
}

// minBeyond is how many samples must rank above a reported tail percentile.
const minBeyond = 10

// beyond counts the samples of n that rank above the p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// latenciesMs returns the phase's latencies in milliseconds; a failed
// request counts as missing every latency limit (+Inf).
func latenciesMs(res []result, bodies []*predictBody) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = ms(r.lat)
		if bodies != nil && bodies[i] == nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// phaseStats is the summary of one open-loop phase.
type phaseStats struct {
	name              string
	rate              float64
	attempted, failed int
	p50, p99          float64 // ms
	p99ok             bool    // p99 is backed by at least minBeyond samples
	lateP99, lateMax  float64 // ms
	goodput           float64 // successful requests per second of phase wall time
	backlog           int     // requests still in flight at the end of the arrivals
}

func summarize(name string, rate float64, sched []arrival, res []result, bodies []*predictBody, failed int) phaseStats {
	st := phaseStats{name: name, rate: rate, attempted: len(res), failed: failed}
	lat := latenciesMs(res, bodies)
	st.p50 = median(lat)
	st.p99, st.p99ok = percentile(lat, 99)
	late := make([]float64, len(res))
	var end, dur time.Duration
	if len(sched) > 0 {
		dur = sched[len(sched)-1].at
	}
	start := end
	if len(res) > 0 {
		start = res[0].done - res[0].lat // the first measured arrival's due time
	}
	for i, r := range res {
		late[i] = ms(r.late)
		st.lateMax = max(st.lateMax, late[i])
		end = max(end, r.done)
		if r.done > dur {
			st.backlog++
		}
	}
	st.lateP99, _ = percentile(late, 99)
	if end > start {
		st.goodput = float64(len(res)-failed) / (end - start).Seconds()
	}
	return st
}

func (st phaseStats) String() string {
	tail := fmt.Sprintf("p99 %.3f ms", st.p99)
	if !st.p99ok {
		tail += " (fewer than 10 samples beyond)"
	}
	return fmt.Sprintf("%-14s rate %7.1f/s  attempted %5d  failed %d  p50 %.3f ms  %s  late p99 %.3f ms max %.3f ms",
		st.name, st.rate, st.attempted, st.failed, st.p50, tail, st.lateP99, st.lateMax)
}
