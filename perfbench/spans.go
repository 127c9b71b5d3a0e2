package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End
// are host nanoseconds since the tracer started; Parent is the ID of the
// enclosing span, or -1. Spans of one iteration or probe share Run.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRun starts a new run id for the spans that follow.
func (t *tracer) nextRun() {
	if t != nil {
		t.run++
	}
}

func (t *tracer) begin(name, detail string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Detail: detail, Parent: parent, Run: t.run,
		Start: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the parts their child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// writeSpans writes the spans as JSON lines, once, at the end of a run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// formatSelfTimes renders self times, largest first.
func formatSelfTimes(self map[string]time.Duration) []string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	lines := make([]string, len(names))
	for i, n := range names {
		lines[i] = fmt.Sprintf("span %-36s self %10.3f ms", n, float64(self[n])/1e6)
	}
	return lines
}
