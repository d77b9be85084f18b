package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call into a layer, recorded by the harness around
// the call. Parent is the index of the span that was open when this one
// began, or -1.
type span struct {
	Name     string
	Start    int64 // harness clock, ns
	End      int64
	Parent   int
	Workload string
}

// tracer keeps spans in memory until the run ends. Only the goroutine
// that generates load records spans, so there is no locking. A nil
// tracer records nothing: the untraced run pays one nil check per call.
type tracer struct {
	workload string
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer { return &tracer{workload: workload} }

// begin opens a span under whichever span is open now and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: nanos(), Parent: parent, Workload: t.workload})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = nanos()
		t.open = t.open[:len(t.open)-1]
	}
}

// total sums the durations of every span with the name, in ns.
func (t *tracer) total(name string) int64 {
	if t == nil {
		return 0
	}
	var sum int64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < reach {
				from = reach
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// write stores the spans in Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev open directly.
func (t *tracer) write(dir string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": s.Workload, "self_us": float64(self[i]) / 1e3},
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", t.workload))
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// layerOf is the span name up to its first dot: the module it times.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
