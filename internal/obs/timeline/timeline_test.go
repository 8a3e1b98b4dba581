package timeline

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// pipelineFrame builds a two-step, two-stage wavefront frame of two
// micro-batches over 4 rows: stage 0 runs step 0 back to back, stage 1
// waits 120ns for its first input, runs step 1, stalls 20ns for the
// second, runs it, and idles 10ns to the 350ns wall.
func pipelineFrame() *Frame {
	f := NewFrame(2, 2, 2, []int{0, 1}, false)
	f.Begin(4, 2)
	*f.Cell(0, 0, 0) = Cell{Start: 0, Dur: 100}
	*f.Cell(0, 1, 0) = Cell{Start: 100, Dur: 100}
	*f.Cell(1, 0, 1) = Cell{Start: 120, Dur: 100}
	*f.Cell(1, 1, 1) = Cell{Start: 240, Dur: 100}
	f.Wall = 350
	return f
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(pipelineFrame())
	r.SetMeta(&Meta{})
	if r.Meta() != nil || r.Snapshot() != nil || r.SampleEvery() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if r.BubbleFraction() != 0 || r.PhaseSeconds(0, Compute) != 0 {
		t.Fatal("nil recorder reported nonzero totals")
	}
	if tot := r.Totals(); tot.Batches != 0 {
		t.Fatal("nil recorder reported batches")
	}
}

func TestSampling(t *testing.T) {
	r := NewRecorder(3, 4)
	f := pipelineFrame()
	for i := 0; i < 12; i++ {
		r.Record(f)
	}
	if tot := r.Totals(); tot.Batches != 4 || tot.Rows != 16 {
		t.Fatalf("totals = %d batches / %d rows from 12 at 1-in-3, want 4 / 16", tot.Batches, tot.Rows)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(1, 3)
	for i := 0; i < 7; i++ {
		r.Record(pipelineFrame())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring retained %d batches, want 3", len(snap))
	}
	// Oldest first, and the evicted early batches are gone.
	for i, b := range snap {
		if want := uint64(5 + i); b.ID != want {
			t.Fatalf("snapshot[%d].ID = %d, want %d", i, b.ID, want)
		}
	}
	// Totals keep accumulating across evictions.
	if tot := r.Totals(); tot.Batches != 7 {
		t.Fatalf("totals.Batches = %d, want 7 (evictions must not erase history)", tot.Batches)
	}
}

func TestPhaseAccounting(t *testing.T) {
	r := NewRecorder(1, 2)
	r.SetMeta(&Meta{
		Model: "m", Strategy: "pipeline", Shards: 2,
		Steps:             []string{"dense0", "dense1"},
		ComputeSecPerRow:  []float64{10e-9, 10e-9},
		ExchangeSecPerRow: []float64{2e-9, 0},
	})
	r.Record(pipelineFrame())

	// Stage 1's stall waits on the priced step-0 boundary: exchange. Its
	// tail after the last kernel waits on nothing priced: barrier_wait.
	for _, c := range []struct {
		ipu  int
		ph   Phase
		want float64
	}{
		{0, Compute, 200e-9}, {0, Bubble, 150e-9},
		{1, Compute, 200e-9}, {1, Bubble, 120e-9},
		{1, Exchange, 20e-9}, {1, BarrierWait, 10e-9},
	} {
		if got := r.PhaseSeconds(c.ipu, c.ph); got != c.want {
			t.Errorf("ipu%d %s = %g s, want %g", c.ipu, c.ph, got, c.want)
		}
	}
	tot := r.Totals()
	if len(tot.PerIPU) != 2 {
		t.Fatalf("PerIPU tracks = %d, want 2", len(tot.PerIPU))
	}
	for k, ps := range tot.PerIPU {
		if ps.Total() != 350e-9 {
			t.Errorf("ipu%d phases sum to %g s, want the 350ns wall", k, ps.Total())
		}
	}
	// Modelled: 4 compute events × 10ns/row × 2 rows; 1 exchange event on
	// step 0 × 2ns/row × 2 rows.
	if want := 80e-9; math.Abs(tot.ModelledCompute-want) > 1e-18 {
		t.Fatalf("modelled compute = %g s, want %g", tot.ModelledCompute, want)
	}
	if want := 4e-9; math.Abs(tot.ModelledExchange-want) > 1e-18 {
		t.Fatalf("modelled exchange = %g s, want %g", tot.ModelledExchange, want)
	}
	// Bubble share: drain 150 + fill 120 of two 350ns walls.
	if got, want := r.BubbleFraction(), 270.0/700.0; got != want {
		t.Fatalf("bubble fraction = %g, want %g", got, want)
	}
}

func TestSetMetaFirstWins(t *testing.T) {
	r := NewRecorder(1, 1)
	first := &Meta{Model: "a"}
	r.SetMeta(first)
	r.SetMeta(&Meta{Model: "b"})
	if r.Meta() != first {
		t.Fatal("second SetMeta overwrote the first executor's description")
	}
}

// TestRecordOutOfRangeDropped: cells outside the batch's layout — left
// behind by a wider earlier batch, or written under another micro-batch
// count at a different stage's position — never reach the derived step
// times, compute totals or events.
func TestRecordOutOfRangeDropped(t *testing.T) {
	f := NewFrame(2, 2, 4, []int{0, 1}, false)
	f.Begin(8, 4)
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 2; k++ {
				*f.Cell(i, j, k) = Cell{Start: 0, Dur: 1000}
			}
		}
	}
	f.Begin(1, 1)
	*f.Cell(0, 0, 0) = Cell{Start: 0, Dur: 100}
	*f.Cell(1, 0, 1) = Cell{Start: 150, Dur: 100}
	f.Wall = 300
	for i := 0; i < 2; i++ {
		if got := f.StepNanos(i); got != 100 {
			t.Errorf("step %d = %dns, want 100 (stale cells leaked in)", i, got)
		}
		if got := f.ComputeNanos(i); got != 100 {
			t.Errorf("ipu%d compute = %dns, want 100", i, got)
		}
	}
	r := NewRecorder(1, 1)
	r.Record(f)
	for _, ev := range r.Snapshot()[0].Events {
		if ev.Phase == Compute && ev.DurNanos != 100 {
			t.Errorf("stale cell became an event: %+v", ev)
		}
		if ev.StartNanos+ev.DurNanos > f.Wall {
			t.Errorf("event %+v ends past the %dns wall", ev, f.Wall)
		}
	}
}

// TestConcurrentRecordAndScrape exercises the recorder under the race
// detector: writer goroutines play serving workers, each recording its
// own executor's frame, while readers scrape summaries and snapshots.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRecorder(1, 4)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Totals()
				r.Snapshot()
				r.BubbleFraction()
				r.PhaseSeconds(0, Compute)
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			f := pipelineFrame()
			for i := 0; i < 200; i++ {
				r.Record(f)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if tot := r.Totals(); tot.Batches != 800 {
		t.Fatalf("totals.Batches = %d, want 800", tot.Batches)
	}
}

// TestRecordingAllocFree proves the steady-state sampled path — deriving
// a frame's events and publishing them — performs zero heap allocations
// once the ring is full, mirroring the executor alloc guarantees.
func TestRecordingAllocFree(t *testing.T) {
	r := NewRecorder(1, 2)
	f := pipelineFrame()
	for i := 0; i < 4; i++ {
		r.Record(f) // fill the ring
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(f)
	})
	if allocs != 0 {
		t.Fatalf("sampled recording allocates %.1f times per batch, want 0", allocs)
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	r := NewRecorder(1, 2)
	meta := &Meta{
		Model: "bf", Strategy: "pipeline", Shards: 2,
		Steps:            []string{"dense0", "dense1"},
		Kernels:          []string{"dense", "dense"},
		Variants:         []string{"tiled", "tiled"},
		ComputeSecPerRow: []float64{10e-9, 10e-9},
	}
	r.SetMeta(meta)
	r.Record(pipelineFrame())
	r.Record(pipelineFrame())

	var buf bytes.Buffer
	err := WriteChrome(&buf, []ChromeProcess{{Name: "bf", Meta: r.Meta(), Batches: r.Snapshot()}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	n, err := LintChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace fails its own lint: %v", err)
	}
	// 8 derived events per batch (3 on ipu0, 5 on ipu1) × 2 batches.
	if n != 16 {
		t.Fatalf("lint counted %d complete events, want 16", n)
	}
	for _, want := range []string{
		`"bf (pipeline, 2 shards)"`, // process label
		`"ipu0"`, `"ipu1"`,          // one track per modelled IPU
		`"dense0"`, `"dense1"`, // compute spans named by step
		`"bubble/fill"`, `"bubble/drain"`, // pipeline fill and drain visible
		`"kernel":"dense"`, `"variant":"tiled"`, `"modelled_ns":`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome export missing %s\n%s", want, out)
		}
	}
}

func TestLintChromeRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"not json":       `{"traceEvents": [`,
		"no array":       `{"displayTimeUnit":"ms"}`,
		"no X events":    `{"traceEvents":[{"name":"process_name","ph":"M","pid":0}]}`,
		"bad phase":      `{"traceEvents":[{"name":"b","ph":"B","pid":0,"tid":0,"ts":0}]}`,
		"negative dur":   `{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":0,"dur":-1}]}`,
		"track overlaps": `{"traceEvents":[{"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":100},{"name":"b","ph":"X","pid":0,"tid":0,"ts":50,"dur":10}]}`,
	}
	for name, data := range cases {
		if _, err := LintChrome([]byte(data)); err == nil {
			t.Errorf("%s: lint accepted an invalid trace", name)
		}
	}
	// Overlap on different tracks is fine — that's parallelism.
	ok := `{"traceEvents":[{"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":100},{"name":"b","ph":"X","pid":0,"tid":1,"ts":50,"dur":10}]}`
	if _, err := LintChrome([]byte(ok)); err != nil {
		t.Errorf("lint rejected cross-track overlap: %v", err)
	}
}
