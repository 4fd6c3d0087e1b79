package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Layer span names, in pipeline order. Each is one per_layer metric
// (<layer>_ms, the median self time of the layer's spans).
var layers = []string{
	"compile",    // tool front end: lex, parse, check, closure-compile
	"assemble",   // victim / program generation and assembly
	"cfg",        // loading and control-flow recovery
	"instrument", // engine walk, placement passes, backend lowering
	"execute",    // machine execution: app code, probe dispatch, actions
	"snapshot",   // collector snapshot of a finished session
	"expose",     // Prometheus exposition of the session's counters
}

// span is one timed call into a layer. Spans of one session share a
// session number; Parent names the span that caused it (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and every method is a cheap no-op.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// add records a span that was timed by the caller and returns its ID.
func (t *tracer) add(layer string, parent, session int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Session: session, Layer: layer,
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		EndNs:   end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(layer string, parent, session int) int {
	now := time.Now()
	return t.add(layer, parent, session, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// do times fn as one span of the layer.
func (t *tracer) do(layer string, parent, session int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(layer, parent, session, start, time.Now())
	return err
}

// selfTimes returns, per layer, each span's self time in ms: its
// duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		self := s.EndNs - s.StartNs - child[s.ID]
		out[s.Layer] = append(out[s.Layer], float64(self)/1e6)
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
