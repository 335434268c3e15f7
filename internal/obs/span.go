package obs

import (
	"sync"
	"time"
)

// Span is one named wall-clock interval of a profile: a sweep phase (parse,
// compile, explore, trace-replay) or a job stage (queue-wait, admission-wait,
// compute, replicate). Times are absolute Unix nanoseconds so spans recorded
// by different layers of one job order correctly without a shared epoch.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// End returns the span's end in Unix nanoseconds.
func (s Span) End() int64 { return s.StartNS + s.DurNS }

// NewSpan builds a span from a wall-clock interval. Start and duration both
// come from the wall-clock readings, so spans that share a boundary instant
// abut exactly; a monotonic duration added to a wall-clock start drifts by
// the clock's slew and makes such neighbors overlap.
func NewSpan(name string, start, end time.Time) Span {
	s, e := start.UnixNano(), end.UnixNano()
	return Span{Name: name, StartNS: s, DurNS: max(e-s, 0)}
}

// SpanList is a concurrency-safe ordered span recorder. Recording locks a
// mutex — phase boundaries are rare events, never per-state work.
type SpanList struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span now and returns the closer that records it.
func (l *SpanList) Begin(name string) func() {
	start := time.Now()
	return func() { l.Record(name, start, time.Now()) }
}

// Record appends a completed span.
func (l *SpanList) Record(name string, start, end time.Time) {
	l.Append(NewSpan(name, start, end))
}

// Append appends an already-built span.
func (l *SpanList) Append(s Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Snapshot copies the recorded spans in recording order.
func (l *SpanList) Snapshot() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}
