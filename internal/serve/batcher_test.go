package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// NewBatcher starts a batcher over a run function that ignores the
// execution report.
func NewBatcher(dim int, cfg BatcherConfig, run func(*tensor.Matrix) *tensor.Matrix) *Batcher {
	return newBatcher(dim, cfg, nil, func(x *tensor.Matrix, _ *execInfo) (*tensor.Matrix, error) {
		return run(x), nil
	})
}

// Do submits one feature row and blocks until its batch has executed. It
// returns the row's scores and the size of the batch it rode in.
func (b *Batcher) Do(ctx context.Context, features []float32) ([]float32, int, error) {
	resp, err := b.do(ctx, features)
	if err != nil {
		return nil, 0, err
	}
	return resp.scores, resp.batch, resp.err
}

// doubler is a trivially-checkable inference function that records the
// batch sizes it was called with.
type doubler struct {
	mu    sync.Mutex
	sizes []int
	delay time.Duration
}

func (d *doubler) run(x *tensor.Matrix) *tensor.Matrix {
	d.mu.Lock()
	d.sizes = append(d.sizes, x.Rows)
	d.mu.Unlock()
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	out := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = 2 * v
	}
	return out
}

func (d *doubler) batchSizes() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.sizes...)
}

func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	d := &doubler{delay: time.Millisecond}
	b := NewBatcher(4, BatcherConfig{MaxBatch: 16, Workers: 1}, d.run)
	defer b.Stop()

	const requests = 64
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := []float32{float32(i), 1, 2, 3}
			scores, batch, err := b.Do(context.Background(), f)
			if err != nil {
				errs <- err
				return
			}
			if batch < 1 || batch > 16 {
				t.Errorf("batch size %d outside [1,16]", batch)
			}
			if len(scores) != 4 || scores[0] != 2*float32(i) || scores[3] != 6 {
				t.Errorf("request %d: wrong scores %v", i, scores)
			}
			if cap(scores) != len(scores) {
				t.Errorf("request %d: scores capacity %d > len %d; append would clobber a neighbouring row",
					i, cap(scores), len(scores))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := b.Stats()
	if s.Requests != requests {
		t.Fatalf("stats.Requests = %d, want %d", s.Requests, requests)
	}
	if s.Batches >= requests {
		t.Fatalf("no coalescing: %d batches for %d requests", s.Batches, requests)
	}
	if s.AvgBatch <= 1 {
		t.Fatalf("avg batch %v, want > 1", s.AvgBatch)
	}
	for _, sz := range d.batchSizes() {
		if sz > 16 {
			t.Fatalf("batch of %d exceeds MaxBatch 16", sz)
		}
	}
}

// TestBatcherLoneRequestRunsAtOnce pins the work-conserving contract: a
// request reaching an idle batcher runs at once instead of waiting for
// company, whatever the deprecated MaxDelay says.
func TestBatcherLoneRequestRunsAtOnce(t *testing.T) {
	d := &doubler{}
	b := NewBatcher(1, BatcherConfig{MaxBatch: 1024, MaxDelay: 10 * time.Second}, d.run)
	defer b.Stop()

	start := time.Now()
	scores, batch, err := b.Do(context.Background(), []float32{21})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("lone request waited %v at an idle batcher", elapsed)
	}
	if batch != 1 || scores[0] != 42 {
		t.Fatalf("got batch=%d scores=%v, want batch=1 scores=[42]", batch, scores)
	}
}

func TestBatcherStop(t *testing.T) {
	d := &doubler{}
	b := NewBatcher(1, BatcherConfig{}, d.run)
	b.Stop()
	if _, _, err := b.Do(context.Background(), []float32{1}); err != ErrStopped {
		t.Fatalf("Do after Stop = %v, want ErrStopped", err)
	}
	b.Stop() // idempotent
}

// heldRun wraps d.run so that its first call blocks until release is
// closed, announcing on entered that the worker is inside it.
func heldRun(d *doubler) (run runFunc, entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	run = func(x *tensor.Matrix, _ *execInfo) (*tensor.Matrix, error) {
		once.Do(func() {
			close(entered)
			<-release
		})
		return d.run(x), nil
	}
	return run, entered, release
}

// waitQueued waits until at least n requests wait in the batcher's queue.
func waitQueued(b *Batcher, n int) {
	for len(b.reqs) < n {
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBatcherStopWithQueuedRequests stops a batcher whose only worker is
// held inside run while its queue is full and more callers block on it.
// Every caller must return ErrStopped or its own scores without waiting
// for the worker, and Stop must return once the worker is released,
// which means the worker goroutine has exited. Run with -race.
func TestBatcherStopWithQueuedRequests(t *testing.T) {
	const maxBatch = 4
	d := &doubler{}
	run, entered, release := heldRun(d)
	b := newBatcher(4, BatcherConfig{MaxBatch: maxBatch, Workers: 1}, nil, run)

	const callers = maxBatch + 3 // one running, a full queue, two blocked
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		f := []float32{float32(i), 1, 2, 3}
		scores, _, err := b.Do(context.Background(), f)
		switch {
		case err == ErrStopped:
		case err != nil:
			t.Errorf("caller %d got %v, want ErrStopped or scores", i, err)
		case len(scores) != 4 || scores[0] != 2*f[0]:
			t.Errorf("caller %d got scores %v for features %v", i, scores, f)
		}
	}
	wg.Add(1)
	go call(0)
	<-entered
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go call(i)
	}
	waitQueued(b, cap(b.reqs))

	stopped := make(chan struct{})
	go func() {
		b.Stop()
		close(stopped)
	}()
	returned := make(chan struct{})
	go func() {
		wg.Wait()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("callers still blocked after Stop")
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return: the worker did not exit")
	}
	if _, _, err := b.Do(context.Background(), []float32{1, 2, 3, 4}); err != ErrStopped {
		t.Fatalf("Do after Stop = %v, want ErrStopped", err)
	}
}

func TestBatcherContextCancelled(t *testing.T) {
	d := &doubler{}
	b := NewBatcher(1, BatcherConfig{}, d.run)
	defer b.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Do(ctx, []float32{1}); err != context.Canceled {
		t.Fatalf("Do with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestBatcherRecoversInferencePanic(t *testing.T) {
	b := NewBatcher(1, BatcherConfig{},
		func(*tensor.Matrix) *tensor.Matrix { panic("boom") })
	defer b.Stop()
	if _, _, err := b.Do(context.Background(), []float32{1}); err == nil {
		t.Fatal("expected an error from a panicking inference function")
	}
	// The worker pool must survive for the next request.
	if _, _, err := b.Do(context.Background(), []float32{1}); err == nil {
		t.Fatal("expected an error on the second request too")
	}
}

// TestBatcherCancelMidBatchUnderLoad races context cancellation against
// in-flight batch execution: half the callers cancel while their batch is
// running, half wait it out. The abandonment arbitration must keep every
// surviving response correct (no stale or cross-wired rows from recycled
// requests) and settle every request without deadlock — the regression
// for the leak where a cancelled caller left its pooled request to a
// worker that then blocked or delivered into the void. Run with -race.
func TestBatcherCancelMidBatchUnderLoad(t *testing.T) {
	d := &doubler{delay: 2 * time.Millisecond}
	b := NewBatcher(4, BatcherConfig{MaxBatch: 8, Workers: 2}, d.run)
	defer b.Stop()

	const rounds = 40
	const callers = 16
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f := []float32{float32(round*callers + i), 1, 2, 3}
				if i%2 == 0 {
					// Cancel while the batch is (likely) executing.
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					defer cancel()
					// A nil error means the worker won the arbitration and
					// delivered before the deadline fired — also fine.
					_, _, err := b.Do(ctx, f)
					if err != nil && err != context.DeadlineExceeded && err != context.Canceled {
						t.Errorf("cancelled Do: unexpected error %v", err)
					}
					return
				}
				scores, _, err := b.Do(context.Background(), f)
				if err != nil {
					t.Errorf("surviving Do: %v", err)
					return
				}
				if len(scores) != 4 || scores[0] != 2*f[0] {
					t.Errorf("surviving Do got scores %v for features %v", scores, f)
				}
			}(i)
		}
		wg.Wait()
	}
}
