package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures in testdata are perfbench standard output, trimmed to the
// metrics the gate reads. committed.txt is the committed side of every
// comparison; the others are fresh runs gated against it.
const committedFixture = "committed.txt"

// gateFixtures pins what the gate makes of each fresh-run fixture: whether
// it fails, and a line it must print.
var gateFixtures = []struct {
	name string
	fail bool
	line string
}{
	{committedFixture, false, "perf gate passed"},
	{"pass.txt", false, "perf gate passed"},
	{"kernel_regressed.txt", true, "FAIL sharded_http/kernel.bsr.gflops"},
	{"kernel_vanished.txt", true, "FAIL structured_http/kernel.fft.gflops"},
	{"phase_growth.txt", true, "FAIL sharded_http/shard.pixelfly.bubble_fraction"},
	{"phase_vanished.txt", true, "FAIL sharded_http/shard.pixelfly.micro_batches"},
	{"alloc_growth.txt", true, "FAIL structured_http/runtime.alloc_kb_per_req"},
	{"incorrect.txt", true, "FAIL fresh record: testdata/incorrect.txt: the run reported correct=false"},
	{"truncated.txt", true, "FAIL fresh record: testdata/truncated.txt: last line is not a perfbench record"},
}

func fixturePath(name string) string { return filepath.Join("testdata", name) }

func mustLoad(t testing.TB, name string) *record {
	t.Helper()
	r, err := loadRecord(fixturePath(name))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// with returns a copy of r with the named metrics set by f.
func with(r *record, f func(name string, v float64) float64) *record {
	c := *r
	c.Metrics = make(map[string]metric, len(r.Metrics))
	for name, m := range r.Metrics {
		m.Value = f(name, m.Value)
		c.Metrics[name] = m
	}
	return &c
}

// set returns a copy of r with one metric changed.
func set(r *record, name string, v float64) *record {
	return with(r, func(n string, old float64) float64 {
		if n == name {
			return v
		}
		return old
	})
}

func TestSnapshotGateEndToEnd(t *testing.T) {
	for _, c := range gateFixtures {
		var out strings.Builder
		failed := run(&out, fixturePath(committedFixture), fixturePath(c.name))
		if failed != c.fail || !strings.Contains(out.String(), c.line) {
			t.Errorf("%s: failed=%v, want %v with a line %q; gate printed:\n%s", c.name, failed, c.fail, c.line, out.String())
		}
	}
}

// TestSnapshotGateTruncatedRecord: a record cut off mid-line fails the gate
// on either side, and never parses as a record that gates nothing.
func TestSnapshotGateTruncatedRecord(t *testing.T) {
	var out strings.Builder
	if !run(&out, fixturePath("truncated.txt"), fixturePath(committedFixture)) {
		t.Fatalf("a truncated committed record passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL committed record") {
		t.Fatalf("gate did not blame the committed record:\n%s", out.String())
	}
	if !run(io.Discard, fixturePath(committedFixture), fixturePath("truncated.txt")) {
		t.Fatal("a truncated fresh record passed")
	}
	if !run(io.Discard, fixturePath(committedFixture), fixturePath("no-such-file.txt")) {
		t.Fatal("a missing fresh record passed")
	}
}

func TestGateKernels(t *testing.T) {
	base := mustLoad(t, committedFixture)
	calib := func(name string) bool { return strings.Contains(name, "/loadgen.calib_gflops_") }
	// scaled returns a copy of r with every kernel rate times k and every
	// calibration rate times c.
	scaled := func(r *record, k, c float64) *record {
		return with(r, func(name string, v float64) float64 {
			switch {
			case calib(name):
				return c * v
			case strings.Contains(name, "/kernel."):
				return k * v
			}
			return v
		})
	}
	bsr := "sharded_http/kernel.bsr.gflops"
	for _, c := range []struct {
		desc  string
		fresh *record
		fail  bool
	}{
		{"a host 30% slower, kernels and calibration alike", scaled(base, 0.7, 0.7), false},
		{"a host half as fast, kernels and calibration alike", scaled(base, 0.5, 0.5), false},
		{"bsr 35% slower", set(base, bsr, 0.65*base.Metrics[bsr].Value), false},
		{"bsr 45% slower", set(base, bsr, 0.55*base.Metrics[bsr].Value), true},
		{"bsr 45% slower while the calibration reads twice as fast", set(scaled(base, 1, 2), bsr, 0.55*base.Metrics[bsr].Value), true},
		// The calibration kernel can read twice as fast on unchanged code
		// (KNOWN_ISSUES.md #9); a raw rate that held does not fail.
		{"kernels flat while the calibration reads twice as fast", scaled(base, 1, 2), false},
		{"kernels 45% slower while the calibration reads 45% slower too", scaled(base, 0.55, 0.55), false},
		{"matmul reads 0", set(base, "sharded_http/kernel.matmul.gflops", 0), true},
		{"an ungated family (structured_http's matmul) 90% slower", set(base, "structured_http/kernel.matmul.gflops",
			0.1*base.Metrics["structured_http/kernel.matmul.gflops"].Value), false},
	} {
		if got := gate(io.Discard, base, c.fresh); got != c.fail {
			t.Errorf("%s: gate failed=%v, want %v", c.desc, got, c.fail)
		}
	}
	// Every gated family is checked, not only the first.
	for _, name := range kernelMetrics {
		if !gate(io.Discard, base, set(base, name, 0.5*base.Metrics[name].Value)) {
			t.Errorf("%s at half its rate passed", name)
		}
	}
}

func TestGatePhases(t *testing.T) {
	base := mustLoad(t, committedFixture)
	for _, name := range phaseMetrics {
		o := base.Metrics[name].Value
		if gate(io.Discard, base, set(base, name, o+0.9*phaseTol)) {
			t.Errorf("%s growing by %.3f (inside the tolerance) failed", name, 0.9*phaseTol)
		}
		if !gate(io.Discard, base, set(base, name, o+1.1*phaseTol)) {
			t.Errorf("%s growing by %.3f passed", name, 1.1*phaseTol)
		}
		if gate(io.Discard, base, set(base, name, 0)) {
			t.Errorf("%s falling to 0 failed", name)
		}
	}
	// A sharded model whose phases were not measured fails: perfbench
	// writes 0 for all of its shard figures, and an unsharded executor
	// records no micro-batches.
	for _, name := range microBatchMetrics {
		if base.Metrics[name].Value <= 0 {
			t.Fatalf("%s reads 0 in the committed fixture", name)
		}
		prefix := strings.TrimSuffix(name, "micro_batches")
		vanished := with(base, func(n string, v float64) float64 {
			if strings.HasPrefix(n, prefix) {
				return 0
			}
			return v
		})
		var out strings.Builder
		if !gate(&out, base, vanished) || !strings.Contains(out.String(), "FAIL "+name) {
			t.Errorf("every %s* figure at 0 did not fail on %s:\n%s", prefix, name, out.String())
		}
		if !gate(io.Discard, base, set(base, name, 0)) {
			t.Errorf("%s falling to 0 passed", name)
		}
		if gate(io.Discard, set(base, name, 0), set(base, name, 0)) {
			t.Errorf("%s at 0 in both records failed", name)
		}
	}
}

func TestGateAllocations(t *testing.T) {
	base := mustLoad(t, committedFixture)
	for _, name := range allocMetrics {
		o := base.Metrics[name].Value
		grown := o * (1 + 1.1*allocTol)
		if o == 0 {
			grown = 1 // one request-path cache miss where the record has none
		} else if gate(io.Discard, base, set(base, name, o*(1+0.9*allocTol))) {
			t.Errorf("%s growing by %.0f%% (inside the tolerance) failed", name, 90*allocTol)
		}
		if !gate(io.Discard, base, set(base, name, grown)) {
			t.Errorf("%s growing from %g to %g passed", name, o, grown)
		}
	}
}

// TestGatePassesImprovementAndItself: no check fails on an improvement, so
// a much faster change (every kernel 10× faster, every share and
// allocation lower) passes, and so does a record against itself.
func TestGatePassesImprovementAndItself(t *testing.T) {
	base := mustLoad(t, committedFixture)
	if gate(io.Discard, base, base) {
		t.Fatal("the committed record fails against itself")
	}
	faster := with(base, func(name string, v float64) float64 {
		switch {
		case strings.Contains(name, "/kernel.") && strings.HasSuffix(name, ".gflops"):
			return 10 * v
		case strings.HasSuffix(name, "_share") || strings.HasSuffix(name, "_fraction") || strings.Contains(name, "alloc"):
			return v / 2
		}
		return v
	})
	var out strings.Builder
	if gate(&out, base, faster) {
		t.Fatalf("a 10× faster record with lower shares failed:\n%s", out.String())
	}
}

// TestCommittedRecord checks the repository's BENCH_perf.json: it parses,
// every gated kernel family ran in it, and it passes against itself.
func TestCommittedRecord(t *testing.T) {
	r, err := loadRecord(filepath.Join("..", "..", "BENCH_perf.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range kernelMetrics {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s reads %g, so the gate cannot check it", name, r.Metrics[name].Value)
		}
	}
	if gate(io.Discard, r, r) {
		t.Fatal("BENCH_perf.json fails against itself")
	}
}

// FuzzBenchRecord feeds arbitrary bytes to the record parser: it returns
// an error or a record with finite metrics, the gate never panics on such
// a record against the committed fixture either way round, and a record
// always passes against itself.
func FuzzBenchRecord(f *testing.F) {
	for _, c := range gateFixtures {
		data, err := os.ReadFile(fixturePath(c.name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(""))
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"correct":true,"metrics":{"sharded_http/kernel.bsr.gflops":{"value":1e308}}}`))
	base := mustLoad(f, committedFixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseRecord(data)
		if err != nil {
			return
		}
		for name, m := range r.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Fatalf("%s = %v", name, m.Value)
			}
		}
		if gate(io.Discard, r, r) {
			var out strings.Builder
			gate(&out, r, r)
			t.Fatalf("a record fails against itself:\n%s", out.String())
		}
		gate(io.Discard, base, r)
		gate(io.Discard, r, base)
	})
}
