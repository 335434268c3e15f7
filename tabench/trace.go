package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced call into a layer: its name, the span that caused it
// (-1 for a root) and its wall-clock interval. Spans of one pass or one
// request share a root.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory; a disabled tracer records nothing and
// every method is a no-op, so the untraced run pays one branch per call.
// Used from one goroutine at a time.
type tracer struct {
	on    bool
	spans []span
}

// begin opens a span under parent and returns its handle (-1 when off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: time.Now().UnixNano()})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(h int) {
	if h >= 0 {
		t.spans[h].EndNS = time.Now().UnixNano()
	}
}

// add records an already-measured interval (client-side request timing,
// server-reported job spans).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: start.UnixNano(), EndNS: end.UnixNano()})
	return len(t.spans) - 1
}

// selfNS returns each span's self time: its duration minus the part its
// children cover. Children of one parent never overlap here (every traced
// caller is sequential), so the covered part is the sum of the children's
// durations.
func (t *tracer) selfNS() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// selfTimes returns each span name's total self time in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for i, ns := range t.selfNS() {
		out[t.spans[i].Name] += float64(ns) / 1e9
	}
	return out
}

// rootResidual is the share of the root spans' time that no layer span
// covers: the benchmark's own work between layer calls.
func (t *tracer) rootResidual() float64 {
	var total, self int64
	for i, ns := range t.selfNS() {
		if s := t.spans[i]; s.Parent < 0 {
			total += s.EndNS - s.StartNS
			self += ns
		}
	}
	return ratio(float64(self), float64(total))
}

// durations returns the durations in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// write dumps the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfTime struct {
		Name  string  `json:"name"`
		SelfS float64 `json:"self_s"`
	}
	doc := struct {
		Self  []selfTime `json:"self"`
		Spans []span     `json:"spans"`
	}{Spans: t.spans}
	for _, n := range names {
		doc.Self = append(doc.Self, selfTime{n, self[n]})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
