package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanNames are the benchmark's own calls into the program's layers,
// in path order. Every traced run reports a self time for each, zero
// when the workload makes no such call.
var spanNames = []string{"cluster.build", "store.load", "core.characterize", "core.evaluate", "core.report"}

// span is one recorded call. Times are seconds since the tracer
// started; Parent is 0 for a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	open  []int // stack of open span IDs
	spans []span
}

func newTracer(run int) *tracer { return &tracer{t0: time.Now(), run: run} }

// start opens a span and returns the function that closes it. Calls
// nest on one goroutine: the benchmark characterizes with a single
// worker, so the program calls back into it sequentially.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Run: t.run, Name: name, Start: time.Since(t.t0).Seconds()}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[s.ID-1].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the time its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := make(map[string]float64, len(spanNames))
	for _, name := range spanNames {
		out[name] = 0
	}
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start
		if s.Parent != 0 {
			out[t.spans[s.Parent-1].Name] -= s.End - s.Start
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(t.spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// formatSelf renders the self-time table a traced run prints.
func formatSelf(self map[string]float64) string {
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("span self time:\n")
	for _, name := range names {
		fmt.Fprintf(&b, "  %-18s %10.6f s\n", name, self[name])
	}
	return b.String()
}
