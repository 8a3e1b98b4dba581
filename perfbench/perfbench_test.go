package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {25, 2}, {90, 4.6}} {
		if got, _ := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got, _ := percentile([]float64{1, 2, math.Inf(1)}, 75); !math.IsInf(got, 1) {
		t.Errorf("a failed request must pull the tail to +Inf, got %v", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 99, false}, // 9 samples beyond p99
		{1000, 99, true}, // exactly 10
		{1500, 99, true},
		{99, 90, false},
		{100, 90, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, c.p); ok != c.want {
			t.Errorf("n=%d p%v: ok=%v, want %v (beyond=%d)", c.n, c.p, ok, c.want, beyond(c.n, c.p))
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 450, 2000, 3, vectors)
	b := poissonSchedule(7, 450, 2000, 3, vectors)
	c := poissonSchedule(8, 450, 2000, 3, vectors)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// The mean gap must match the rate: 2000 arrivals at 450/s span ~4.44 s.
	if span := a[len(a)-1].at.Seconds(); math.Abs(span-2000.0/450)/(2000.0/450) > 0.1 {
		t.Errorf("2000 arrivals at 450/s span %.2f s", span)
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatal("arrival times must not decrease")
		}
	}
}

// scriptedProbe answers probes from a per-rate script of outcomes and
// records the rates probed.
type scriptedProbe struct {
	capacity float64            // rates up to this pass unless scripted
	script   map[float64][]bool // outcomes of successive probes at a rate
	probed   []float64
}

func (s *scriptedProbe) probe(rate float64) bool {
	s.probed = append(s.probed, rate)
	if outs := s.script[rate]; len(outs) > 0 {
		s.script[rate] = outs[1:]
		return outs[0]
	}
	return rate <= s.capacity
}

func TestCapacitySearchRetriesOneFailedProbe(t *testing.T) {
	plan := searchPlan{start: 100, step: 2, ramp: 4, refine: 0}
	// A single failure at 200 must be retried, and the ramp must go on.
	sp := &scriptedProbe{capacity: 1000, script: map[float64][]bool{200: {false}}}
	if got := searchCapacity(plan, sp.probe); got != 800 {
		t.Fatalf("capacity %v, want 800 (probes %v)", got, sp.probed)
	}
	if want := []float64{100, 200, 200, 400, 800}; !reflect.DeepEqual(sp.probed, want) {
		t.Fatalf("probed %v, want %v", sp.probed, want)
	}
}

func TestCapacitySearchStopsOnTwoFailedProbes(t *testing.T) {
	plan := searchPlan{start: 100, step: 2, ramp: 4, refine: 0}
	sp := &scriptedProbe{capacity: 1000, script: map[float64][]bool{200: {false, false}}}
	if got := searchCapacity(plan, sp.probe); got != 100 {
		t.Fatalf("capacity %v, want 100 (probes %v)", got, sp.probed)
	}
	if want := []float64{100, 200, 200}; !reflect.DeepEqual(sp.probed, want) {
		t.Fatalf("probed %v, want %v", sp.probed, want)
	}
}

func TestCapacitySearchBisectsAndStepsDown(t *testing.T) {
	sp := &scriptedProbe{capacity: 300}
	got := searchCapacity(searchPlan{start: 100, step: 2, ramp: 8, refine: 6}, sp.probe)
	if got > 300 || got < 300/math.Pow(2, 1.0/64)-1e-9 {
		t.Fatalf("capacity %v, want within one refine step below 300", got)
	}
	sp = &scriptedProbe{capacity: 30}
	if got := searchCapacity(searchPlan{start: 100, step: 2, ramp: 8, refine: 0}, sp.probe); got != 25 {
		t.Fatalf("stepping down from a failing start: capacity %v, want 25", got)
	}
	sp = &scriptedProbe{capacity: 0}
	if got := searchCapacity(searchPlan{start: 100, step: 2, ramp: 3, refine: 2}, sp.probe); got != 0 {
		t.Fatalf("nothing passes: capacity %v, want 0", got)
	}
}

func TestCapacitySearchProbeCountIsBounded(t *testing.T) {
	plan := searchPlan{start: 100, step: 1.2, ramp: 4, refine: 2}
	for _, capacity := range []float64{0, 50, 100, 130, 1000} {
		// Every first probe at a rate fails, so every rate costs a retry.
		probes := 0
		seen := map[float64]bool{}
		searchCapacity(plan, func(rate float64) bool {
			probes++
			first := !seen[rate]
			seen[rate] = true
			return !first && rate <= capacity
		})
		if limit := 2 * (plan.ramp + plan.refine); probes > limit {
			t.Errorf("capacity %v: %d probes, want at most %d", capacity, probes, limit)
		}
	}
}

func TestProbePassesNeedsAllThreeCriteria(t *testing.T) {
	ok := phaseStats{rate: 1000, p99: 50, backlog: 20}
	if !probePasses(ok) {
		t.Fatal("a healthy probe must pass")
	}
	for name, st := range map[string]phaseStats{
		"failed request": {rate: 1000, p99: 50, backlog: 20, failed: 1},
		"p99 over limit": {rate: 1000, p99: capacityLimitMs + 1, backlog: 20},
		"growing queue":  {rate: 1000, p99: 50, backlog: 101},
	} {
		if probePasses(st) {
			t.Errorf("%s: probe passed", name)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	s := newSpans()
	s.list = []span{
		{Name: "parent", Parent: -1, Start: 0, Dur: 100},
		{Name: "a", Parent: 0, Start: 10, Dur: 30},  // 10..40
		{Name: "b", Parent: 0, Start: 20, Dur: 40},  // 20..60, overlaps a
		{Name: "c", Parent: 0, Start: 90, Dur: 30},  // 90..120, clipped at 100
		{Name: "d", Parent: 1, Start: 15, Dur: 100}, // child of a
	}
	self := s.selfTimes()
	if self[0] != 100-50-10 {
		t.Errorf("parent self %v, want 40", self[0])
	}
	if self[1] != 30-25 {
		t.Errorf("a self %v, want 5", self[1])
	}
	if self[2] != 40*time.Nanosecond {
		t.Errorf("b self %v, want 40", self[2])
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's metric names and
// units to the ones the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
}
