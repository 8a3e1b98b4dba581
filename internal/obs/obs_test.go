package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Set(1.0)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v after a second Set, want 1.0", got)
	}
}

func TestRegistryIdempotentCreation(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L{"model", "bf"})
	b := r.Counter("x_total", L{"model", "bf"})
	if a != b {
		t.Fatal("same (family, labels) should return the same counter")
	}
	c := r.Counter("x_total", L{"model", "dense"})
	if a == c {
		t.Fatal("different labels should be a different series")
	}
}

// TestRegistryConcurrentCreation creates the same series from several
// goroutines at once while another scrapes and re-registers a Func, the
// way two serving workers build a model's step instruments on their first
// batches: every caller must get the one instrument, a scrape must never
// see an entry without one, and under -race no access may go unordered.
func TestRegistryConcurrentCreation(t *testing.T) {
	r := NewRegistry()
	const callers = 8
	hs := make([]*Histogram, callers)
	cs := make([]*Counter, callers)
	gs := make([]*Gauge, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			l := L{Key: "model", Value: "m"}
			hs[i] = r.Histogram("h", LatencyBuckets(), l)
			cs[i] = r.Counter("c", l)
			gs[i] = r.Gauge("g", l)
			r.GaugeFunc("gf", func() float64 { return float64(i) }, l)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
			}
		}
	}()
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if hs[i] != hs[0] || cs[i] != cs[0] || gs[i] != gs[0] {
			t.Fatalf("caller %d got another instrument for the same series", i)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Help("reqs_total", "requests served")
	r.Counter("reqs_total", L{"model", "bf"}).Add(3)
	r.Gauge("depth").Set(1.5)
	r.CounterFunc("hits_total", func() int64 { return 7 })
	h := r.Histogram("lat_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP reqs_total requests served",
		"# TYPE reqs_total counter",
		`reqs_total{model="bf"} 3`,
		"# TYPE depth gauge",
		"depth 1.5",
		"hits_total 7",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.001"} 1`,
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
}

func TestDropLabeled(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", L{"model", "bf"}).Inc()
	r.Counter("a_total", L{"model", "dense"}).Inc()
	r.GaugeFunc("b", func() float64 { return 1 }, L{"model", "bf"})
	r.DropLabeled("model", "bf")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `model="bf"`) {
		t.Fatalf("dropped series still exported:\n%s", out)
	}
	if !strings.Contains(out, `a_total{model="dense"} 1`) {
		t.Fatalf("unrelated series lost:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", L{"v", `a"b\c`}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{v="a\"b\\c"} 1`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}
