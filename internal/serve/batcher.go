package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// BatcherConfig tunes the dynamic micro-batcher.
type BatcherConfig struct {
	// MaxBatch is the largest number of requests coalesced into one
	// inference batch. Default 32.
	MaxBatch int
	// Deprecated: MaxDelay is ignored. Workers take every waiting request
	// the moment they are free, so no request waits for a flush timer.
	MaxDelay time.Duration
	// Workers is the number of goroutines executing batches; batches run
	// concurrently because Infer is read-only. Default GOMAXPROCS.
	Workers int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// maxTraceSteps bounds how many per-step plan timings ride a response
// back to the request that asked for them — sized for the deepest
// compiled program the stack produces (a sharded butterfly lowers to
// log2(N/S) + log2(S) micro-steps plus the classifier tail).
const maxTraceSteps = 24

// execInfo is the per-batch execution report the inference function
// fills in: how many compiled-plan steps ran and how long each took.
// One instance lives per worker and is reused across batches, so the
// timing plumbing allocates nothing.
type execInfo struct {
	nsteps    int
	stepNanos [maxTraceSteps]int64
}

func (e *execInfo) reset() { e.nsteps = 0 }

// runFunc is the batch-inference signature: it must accept a (rows ×
// dim) matrix and return a (rows × anything) matrix, and may fill in the
// execution report for the per-request traces. It is called from
// multiple goroutines concurrently and must be read-only with respect to
// shared state (Model.runBatch satisfies this). The input matrix is
// worker-owned and recycled after run returns, so run must not retain
// it; the returned matrix transfers to the batcher, which hands row views
// of it to responses, so its rows must be safe to alias until the
// callers are done with their scores.
type runFunc func(x *tensor.Matrix, info *execInfo) *tensor.Matrix

type request struct {
	features []float32
	enq      time.Time // when do queued the request
	resp     chan response

	// abandoned arbitrates the race between a caller giving up on an
	// enqueued request (context cancellation, shutdown) and the worker
	// delivering its response. Exactly one side wins the false→true CAS:
	// a winning caller walks away and the worker recycles the request
	// without sending; a winning worker sends, and the losing caller
	// drains the buffered response before recycling. Either way the
	// request returns to the pool with an empty channel.
	abandoned atomic.Bool
}

type response struct {
	scores []float32
	batch  int
	err    error

	// Timing block for the per-request trace: when the batch's inference
	// started, how long this request waited in the queue before that,
	// how long the inference ran, and the compiled plan's per-step
	// durations (valid for the first nsteps entries).
	execStart  time.Time
	queueNanos int64
	execNanos  int64
	nsteps     int
	stepNanos  [maxTraceSteps]int64
}

// reqPool recycles request structs (and their 1-buffered response
// channels) so the steady-state request path allocates nothing. The
// abandoned CAS guarantees every request reaches the pool with an empty
// response channel: the side that loses the arbitration is the one that
// drains (caller) or skips (worker) the response and recycles.
var reqPool = sync.Pool{New: func() any { return &request{resp: make(chan response, 1)} }}

// Batcher coalesces concurrent single-row requests into batched calls of
// one inference function. It is work-conserving: each of Workers
// goroutines blocks for one request, takes every request already queued
// behind it (up to MaxBatch) and runs them as one batch. Rows coalesce
// only while the workers are busy; no request waits for company while a
// worker sits idle.
type Batcher struct {
	cfg  BatcherConfig
	dim  int
	run  runFunc
	mets *batcherMetrics // nil when the batcher is not instrumented

	// reqs holds requests waiting for a worker. Its MaxBatch×Workers
	// buffer lets every worker find a full batch queued; past that, do
	// blocks until a worker frees room.
	reqs    chan *request
	stopped chan struct{}
	stopOne sync.Once
	wg      sync.WaitGroup

	nreq    atomic.Int64
	nbatch  atomic.Int64
	maxSeen atomic.Int64
}

// batcherMetrics is the obs instrumentation of one batcher: why batches
// closed and how big they were. Fixed at construction so the worker
// goroutines read it without synchronization.
type batcherMetrics struct {
	flushFull    *obs.Counter   // batch reached MaxBatch
	flushDrained *obs.Counter   // queue emptied before MaxBatch
	batchSize    *obs.Histogram // coalesced requests per batch
}

// newBatcher starts a batcher of cfg.Workers goroutines over run; mets
// (optional) wires the flush counters and batch-size histogram. Both are
// fixed before the worker goroutines start, so they need no
// synchronization.
func newBatcher(dim int, cfg BatcherConfig, mets *batcherMetrics, run runFunc) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		cfg:     cfg,
		dim:     dim,
		run:     run,
		mets:    mets,
		reqs:    make(chan *request, cfg.MaxBatch*cfg.Workers),
		stopped: make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		b.wg.Add(1)
		go b.work()
	}
	return b
}

// do submits one feature row and blocks until its batch has executed. It
// returns the full response, timing block included, for callers that
// feed per-request traces. The returned response is a value copy; the
// error covers submission/shutdown failures while resp.err covers
// inference failures.
func (b *Batcher) do(ctx context.Context, features []float32) (response, error) {
	r := reqPool.Get().(*request)
	r.features = features
	r.enq = time.Now()
	select {
	case b.reqs <- r:
	case <-b.stopped:
		b.release(r)
		return response{}, ErrStopped
	case <-ctx.Done():
		b.release(r)
		return response{}, ctx.Err()
	}
	select {
	case resp := <-r.resp:
		b.release(r)
		return resp, nil
	case <-b.stopped:
		if r.abandoned.CompareAndSwap(false, true) {
			// Won the arbitration: no worker will send. A worker that
			// still dequeues the request recycles it; one left queued
			// at shutdown is dropped with the batcher.
			return response{}, ErrStopped
		}
		// A worker claimed delivery concurrently with the shutdown —
		// its response is (or is about to be) in the buffered channel.
		resp := <-r.resp
		b.release(r)
		return resp, nil
	case <-ctx.Done():
		if r.abandoned.CompareAndSwap(false, true) {
			return response{}, ctx.Err()
		}
		// Lost to the worker's send: drain the buffered response so the
		// pooled request comes back with an empty channel.
		<-r.resp
		b.release(r)
		return response{}, ctx.Err()
	}
}

// release recycles a request whose response channel is known to be empty
// and that neither side will touch again: it was never enqueued, its
// response has been received, or the abandonment arbitration settled who
// recycles. The abandoned flag is reset so the pooled request starts the
// next cycle unclaimed.
func (b *Batcher) release(r *request) {
	r.features = nil
	r.abandoned.Store(false)
	reqPool.Put(r)
}

// deliver sends one response if the caller is still waiting, recycling
// the request instead when the caller abandoned it (the worker-side half
// of the abandonment arbitration). Exactly one of the send and the
// recycle happens per request.
func (b *Batcher) deliver(r *request, resp response) {
	if r.abandoned.CompareAndSwap(false, true) {
		r.resp <- resp
		return
	}
	b.release(r)
}

// Stop shuts the batcher down and waits for the workers to exit. Pending
// and subsequent requests return ErrStopped, unless a worker delivers
// their scores first.
func (b *Batcher) Stop() {
	b.stopOne.Do(func() { close(b.stopped) })
	b.wg.Wait()
}

// BatcherStats counts the coalescing behaviour so far.
type BatcherStats struct {
	Requests int64   `json:"requests"`
	Batches  int64   `json:"batches"`
	AvgBatch float64 `json:"avg_batch"`
	MaxBatch int64   `json:"max_batch"`
}

// Stats returns a snapshot of the coalescing counters.
func (b *Batcher) Stats() BatcherStats {
	s := BatcherStats{
		Requests: b.nreq.Load(),
		Batches:  b.nbatch.Load(),
		MaxBatch: b.maxSeen.Load(),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(s.Requests) / float64(s.Batches)
	}
	return s
}

// work is one worker's loop: block for a request, take every request
// already queued behind it up to MaxBatch, and run them as one batch.
func (b *Batcher) work() {
	defer b.wg.Done()
	// Each worker owns one reusable input matrix, batch slice and
	// execution report: the matrix grows to MaxBatch×dim once, so steady
	// state allocates nothing.
	in := &tensor.Matrix{Cols: b.dim}
	info := new(execInfo)
	batch := make([]*request, 0, b.cfg.MaxBatch)
	for {
		select {
		case <-b.stopped:
			return
		case r := <-b.reqs:
			batch = append(batch[:0], r)
		}
		// A send to a parked worker hands the request over and runs the
		// worker before senders that are already runnable, so requests
		// arriving together would otherwise leave as 1-row batches.
		// Yielding once lets them reach the queue first.
		runtime.Gosched()
	drain:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		if b.mets != nil {
			b.mets.batchSize.Observe(float64(len(batch)))
			if len(batch) == b.cfg.MaxBatch {
				b.mets.flushFull.Inc()
			} else {
				b.mets.flushDrained.Inc()
			}
		}
		b.exec(batch, in, info)
		clear(batch) // don't pin recycled requests
	}
}

func (b *Batcher) exec(batch []*request, in *tensor.Matrix, info *execInfo) {
	n := len(batch)
	if cap(in.Data) < n*b.dim {
		in.Data = make([]float32, n*b.dim)
	}
	in.Data = in.Data[:n*b.dim]
	in.Rows = n
	for i, r := range batch {
		copy(in.Data[i*b.dim:(i+1)*b.dim], r.features)
	}
	info.reset()
	execStart := time.Now()
	y, err := b.safeRun(in, info)
	execNanos := time.Since(execStart).Nanoseconds()
	if err != nil {
		b.fail(batch, err)
		return
	}
	cols := y.Cols
	for i, r := range batch {
		// Responses alias rows of the run result: the run contract
		// transfers the returned matrix to the batcher, and each caller
		// owns exactly one row. The three-index slice caps capacity at the
		// row boundary so a caller appending to its scores reallocates
		// instead of writing into the next request's row.
		b.deliver(r, response{
			scores:     y.Data[i*cols : (i+1)*cols : (i+1)*cols],
			batch:      n,
			execStart:  execStart,
			queueNanos: execStart.Sub(r.enq).Nanoseconds(),
			execNanos:  execNanos,
			nsteps:     info.nsteps,
			stepNanos:  info.stepNanos,
		})
	}
	b.nreq.Add(int64(len(batch)))
	b.nbatch.Add(1)
	for {
		cur := b.maxSeen.Load()
		if int64(len(batch)) <= cur || b.maxSeen.CompareAndSwap(cur, int64(len(batch))) {
			break
		}
	}
}

// safeRun converts inference panics into per-request errors so one bad
// batch cannot take the worker pool down.
func (b *Batcher) safeRun(x *tensor.Matrix, info *execInfo) (y *tensor.Matrix, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: inference panic: %v", r)
		}
	}()
	y = b.run(x, info)
	if y.Rows != x.Rows {
		return nil, fmt.Errorf("serve: inference returned %d rows for a %d-row batch", y.Rows, x.Rows)
	}
	return y, nil
}

// fail answers every request of a doomed batch with the error, skipping
// (and recycling) requests whose callers already abandoned them.
func (b *Batcher) fail(batch []*request, err error) {
	for _, r := range batch {
		b.deliver(r, response{err: err})
	}
}
