// Package bench regenerates every table and figure of the paper's
// evaluation. Each experiment produces a Result (an ASCII table with the
// same rows/series the paper reports) from the machine models
// (internal/ipu, internal/gpu) and from real training runs of the nn stack
// on the synthetic datasets.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Options tune experiment scale.
type Options struct {
	// Quick shrinks problem sizes and epoch counts so the whole suite runs
	// in seconds (used by tests); the full-scale run matches the paper's
	// dimensions.
	Quick bool
	// Seed drives every randomized component.
	Seed int64
	// MaxShards caps the shard-count sweep of the shardwall experiment
	// (0 = 64).
	MaxShards int
}

// Result is a rendered experiment.
type Result struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render formats the result as an aligned ASCII table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(r.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns an experiment by id (e.g. "table2", "fig6").
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns the experiments in stable order.
func All() []Experiment {
	var out []Experiment
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs lists registered ids in stable order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string   { return fmt.Sprintf("%.0f", v) }
func ms(sec float64) string { return fmt.Sprintf("%.3f", sec*1e3) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
