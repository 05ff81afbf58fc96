package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Spans of one operation — a stream, a dashboard request, a report, or one
// repetition of a traced split — share Req.
type span struct {
	ID    int64  `json:"id"`
	Req   int64  `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the tracer was created
	End   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin returns the start time of a span; zero when tracing is off.
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records a span that started at start and returns its ID (0 when
// tracing is off).
func (t *tracer) end(name string, req int64, start time.Time) int64 {
	if t == nil {
		return 0
	}
	end := time.Now()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
	return id
}

// add records a span of a known duration ending now — for a stage whose
// calls were timed in aggregate rather than one by one.
func (t *tracer) add(name string, req int64, d time.Duration) int64 {
	if t == nil {
		return 0
	}
	return t.end(name, req, time.Now().Add(-d))
}

// durations returns every span duration of name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// total returns the summed duration of every span of name, in ms.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
