package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into the program, recorded from outside it.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root span
	Run    string `json:"run"`
}

// maxSpans bounds the spans kept in memory; later ones are counted only.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site. cost
// accumulates the time spent inside the tracer itself: its overhead.
type tracer struct {
	mu      sync.Mutex
	run     string
	base    time.Time
	spans   []span
	dropped int
	cost    time.Duration
}

func newTracer(run string) *tracer { return &tracer{run: run, base: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + t.dropped
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(t0.Sub(t.base)), Parent: parent, Run: t.run})
	} else {
		t.dropped++
	}
	t.cost += time.Since(t0)
	return id
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < len(t.spans) {
		t.spans[id].End = int64(t0.Sub(t.base))
	}
	t.cost += time.Since(t0)
}

// measure records fn as a span.
func (t *tracer) measure(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// overhead returns the tracer's own time and the number of spans taken.
func (t *tracer) overhead() (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost, len(t.spans) + t.dropped
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		enc.Encode(&t.spans[i])
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(t.spans), path)
	return nil
}
