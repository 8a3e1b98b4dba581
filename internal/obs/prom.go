package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, one TYPE
// line per family, histograms expanded into cumulative _bucket series
// plus _sum and _count. Func instruments are evaluated outside the
// registry lock, so they may take serving-side locks of their own.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Copy each entry under the lock: a re-registration may swap its
	// function while the scrape evaluates the copy.
	r.mu.Lock()
	ms := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, *m)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return seriesKey(ms[i].family, ms[i].labels) < seriesKey(ms[j].family, ms[j].labels)
	})

	var b strings.Builder
	prevFamily := ""
	for i := range ms {
		m := &ms[i]
		if m.family != prevFamily {
			if h, ok := help[m.family]; ok {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.family, escapeHelp(h))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.family, m.kind.typeName())
			prevFamily = m.family
		}
		switch m.kind {
		case kindCounter:
			writeSample(&b, m.family, m.labels, "", "", formatInt(m.c.Value()))
		case kindCounterFunc:
			writeSample(&b, m.family, m.labels, "", "", formatInt(m.cf()))
		case kindGauge:
			writeSample(&b, m.family, m.labels, "", "", formatFloat(m.g.Value()))
		case kindGaugeFunc:
			writeSample(&b, m.family, m.labels, "", "", formatFloat(m.gf()))
		case kindHistogram:
			writeHistogram(&b, m)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram expands one histogram into its cumulative bucket
// samples plus _sum and _count.
func writeHistogram(b *strings.Builder, m *metric) {
	counts := m.h.BucketCounts()
	bounds := m.h.Bounds()
	var cum int64
	for i, bound := range bounds {
		cum += counts[i]
		writeSample(b, m.family+"_bucket", m.labels, "le", formatFloat(bound), formatInt(cum))
	}
	cum += counts[len(counts)-1]
	writeSample(b, m.family+"_bucket", m.labels, "le", "+Inf", formatInt(cum))
	writeSample(b, m.family+"_sum", m.labels, "", "", formatFloat(m.h.Sum()))
	writeSample(b, m.family+"_count", m.labels, "", "", formatInt(cum))
}

// writeSample renders one sample line, appending an optional extra label
// (the histogram "le") after the registered ones.
func writeSample(b *strings.Builder, name string, labels []L, extraKey, extraVal, value string) {
	b.WriteString(name)
	if len(labels) > 0 || extraKey != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		if extraKey != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraKey)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(extraVal))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// seriesKey is the canonical identity of one series: family plus its
// sorted, escaped label set.
func seriesKey(family string, labels []L) string {
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
