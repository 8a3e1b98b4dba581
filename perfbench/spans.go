package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 at the top
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// spans records the benchmark's own spans in memory. A nil *spans records
// nothing, which is how the end-to-end runs keep them off.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, Parent: parent, Start: now, Dur: -1})
	return len(s.list) - 1
}

// end closes the span.
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &s.list[id]
	sp.Dur = now - sp.Start
}

// add records an already timed span.
func (s *spans) add(name string, parent int, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, span{Name: name, Parent: parent, Start: start.Sub(s.t0), Dur: end.Sub(start)})
	s.mu.Unlock()
}

// durs returns the durations, in ms, of every span with the given name.
func (s *spans) durs(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, ms(sp.Dur))
		}
	}
	return out
}

// total returns the summed duration, in seconds, of spans with the name.
func (s *spans) total(name string) float64 {
	t := 0.0
	for _, d := range s.durs(name) {
		t += d / 1e3
	}
	return t
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children may overlap, as
// concurrent requests under one phase do).
func (s *spans) selfTimes() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	kids := make([][]span, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	out := make([]time.Duration, len(s.list))
	for i, sp := range s.list {
		out[i] = sp.Dur - covered(kids[i], sp.Start, sp.Start+sp.Dur)
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(ss []span, lo, hi time.Duration) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var tot time.Duration
	cur := lo
	for _, sp := range ss {
		a, b := max(sp.Start, cur), min(sp.Start+sp.Dur, hi)
		if b > a {
			tot += b - a
			cur = b
		}
	}
	return tot
}

// spanSummary is one row of the per-name aggregate written with the spans.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// write saves the spans and their per-name totals as JSON under dir.
func (s *spans) write(dir, file string) error {
	self := s.selfTimes()
	byName := map[string]*spanSummary{}
	var names []string
	for i, sp := range s.list {
		row := byName[sp.Name]
		if row == nil {
			row = &spanSummary{Name: sp.Name}
			byName[sp.Name] = row
			names = append(names, sp.Name)
		}
		row.Count++
		row.TotalS += sp.Dur.Seconds()
		row.SelfS += self[i].Seconds()
	}
	summary := make([]spanSummary, len(names))
	for i, n := range names {
		summary[i] = *byName[n]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{summary, s.list})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}
