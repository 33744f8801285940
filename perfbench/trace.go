package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into the program: which call,
// when it started and ended (relative to the tracer's origin), the span that
// caused it and the request it belongs to.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    int64         `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until WriteFile. A nil *Tracer is the
// untraced mode: Begin returns 0 and End does nothing, so call sites need
// no branches.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span and returns its id (ids start at 1; 0 means no span).
func (t *Tracer) Begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	return id
}

// End closes the span id returned by Begin.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// ChildShare returns, over all spans named parent, the summed duration of
// their direct children named child divided by the summed parent duration.
func (t *Tracer) ChildShare(parent, child string) float64 {
	spans := t.Spans()
	var parentSum, childSum time.Duration
	isParent := map[int]bool{}
	for _, s := range spans {
		if s.Name == parent && s.End > 0 {
			isParent[s.ID] = true
			parentSum += s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Name == child && s.End > 0 && isParent[s.Parent] {
			childSum += s.End - s.Start
		}
	}
	if parentSum == 0 {
		return 0
	}
	return float64(childSum) / float64(parentSum)
}

// WriteFile writes every span as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
