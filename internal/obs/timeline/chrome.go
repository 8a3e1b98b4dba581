package timeline

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: the recorder's batches rendered as the
// JSON-object trace format Perfetto and chrome://tracing load natively
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Each model becomes one process (pid), each modelled IPU one thread
// track (tid), each phase span one complete "X" event with args
// carrying the step name, kernel family, variant and the cost model's
// modelled nanos next to the measured duration.

// ChromeProcess is one model's worth of timeline to export: its meta
// and the batches to lay onto its tracks.
type ChromeProcess struct {
	Name    string
	Meta    *Meta
	Batches []BatchRecord
}

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// batchGapUS separates consecutive batches on the time axis so ring
// neighbours render as distinct executions instead of one smear.
const batchGapUS = 50.0

// WriteChrome renders the processes as one trace-event JSON document.
// Batches are laid back-to-back per process (their recorded wall
// clocks, separated by a small gap); events within a batch keep their
// offsets, so each track shows the batch's BSP timeline tiling its
// wall: compute spans, exchange/barrier gaps, and — under pipeline
// partitioning — the fill/drain bubbles.
func WriteChrome(w io.Writer, procs []ChromeProcess) error {
	trace := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for pid, proc := range procs {
		label := proc.Name
		if m := proc.Meta; m != nil && m.Strategy != "" {
			label = fmt.Sprintf("%s (%s, %d shards)", proc.Name, m.Strategy, m.Shards)
		}
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": label},
		})
		tracks := 0
		for _, b := range proc.Batches {
			if b.Tracks > tracks {
				tracks = b.Tracks
			}
		}
		for t := 0; t < tracks; t++ {
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: t,
				Args: map[string]any{"name": fmt.Sprintf("ipu%d", t)},
			})
		}
		base := 0.0
		for _, b := range proc.Batches {
			trace.TraceEvents = append(trace.TraceEvents, batchEvents(pid, base, b, proc.Meta)...)
			base += float64(b.WallNanos)/1e3 + batchGapUS
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// bubbleKind classifies a bubble event as pipeline fill (before the
// track's first compute step), drain (after its last), or stall.
func bubbleKind(b BatchRecord, ev Event) string {
	first, last := int32(-1), int32(-1)
	for _, other := range b.Events {
		if other.IPU == ev.IPU && other.Phase == Compute {
			if first < 0 || other.Step < first {
				first = other.Step
			}
			if other.Step > last {
				last = other.Step
			}
		}
	}
	switch {
	case first < 0:
		return "bubble"
	case ev.Step < first:
		return "fill"
	case ev.Step > last:
		return "drain"
	default:
		return "stall"
	}
}

func batchEvents(pid int, baseUS float64, b BatchRecord, meta *Meta) []chromeEvent {
	micro := b.Micro
	if micro < 1 {
		micro = 1
	}
	out := make([]chromeEvent, 0, len(b.Events))
	for _, ev := range b.Events {
		step := int(ev.Step)
		name := ev.Phase.String()
		if ev.Phase == Compute {
			name = meta.StepName(step)
		} else if ev.Phase == Bubble {
			name = "bubble/" + bubbleKind(b, ev)
		}
		args := map[string]any{
			"step":  meta.StepName(step),
			"phase": ev.Phase.String(),
			"rows":  microRows(b.Rows, micro, ev.MB),
			"batch": b.ID,
		}
		if micro > 1 {
			args["mb"] = ev.MB
		}
		if k := meta.kernel(step); k != "" {
			args["kernel"] = k
		}
		if v := meta.variant(step); v != "" {
			args["variant"] = v
		}
		if mod := meta.modelledNanos(ev, b.Rows, micro); mod > 0 {
			args["modelled_ns"] = int64(mod)
		}
		out = append(out, chromeEvent{
			Name: name, Phase: "X", Cat: ev.Phase.String(),
			PID: pid, TID: int(ev.IPU),
			TS:   baseUS + float64(ev.StartNanos)/1e3,
			Dur:  float64(ev.DurNanos) / 1e3,
			Args: args,
		})
	}
	return out
}

// LintChrome validates a trace-event JSON document: it must parse as
// the object form with a traceEvents array, and every track's complete
// events must be monotonic and non-overlapping — the invariant the BSP
// barrier ordering guarantees on recorded timelines, and the CI gate
// for -timeline-out output. Returns the number of complete events.
func LintChrome(data []byte) (int, error) {
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		return 0, fmt.Errorf("not trace-event JSON: %w", err)
	}
	if trace.TraceEvents == nil {
		return 0, fmt.Errorf("missing traceEvents array")
	}
	type trackKey struct{ pid, tid int }
	tracks := map[trackKey][]chromeEvent{}
	complete := 0
	for _, ev := range trace.TraceEvents {
		switch ev.Phase {
		case "X":
			complete++
			if ev.Dur < 0 {
				return 0, fmt.Errorf("event %q: negative duration %v", ev.Name, ev.Dur)
			}
			k := trackKey{ev.PID, ev.TID}
			tracks[k] = append(tracks[k], ev)
		case "M":
		default:
			return 0, fmt.Errorf("unexpected event phase %q (want X or M)", ev.Phase)
		}
	}
	if complete == 0 {
		return 0, fmt.Errorf("no complete (ph=X) events")
	}
	for k, evs := range tracks {
		sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
		for i := 1; i < len(evs); i++ {
			prevEnd := evs[i-1].TS + evs[i-1].Dur
			// Allow sub-microsecond float slop from the ns→us division.
			if evs[i].TS < prevEnd-0.5 {
				return 0, fmt.Errorf(
					"track pid=%d tid=%d: event %q at %.3fus overlaps previous %q ending %.3fus",
					k.pid, k.tid, evs[i].Name, evs[i].TS, evs[i-1].Name, prevEnd)
			}
		}
	}
	return complete, nil
}
