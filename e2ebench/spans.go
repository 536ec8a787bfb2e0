package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Op names the request or run the call belongs to; every span of one
// request or run shares it.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// handle is an open span.
type handle struct {
	t *tracer
	s span
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name, op string, parent uint64) *handle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := uint64(len(t.spans)) + 1
	// Reserve the slot so ids stay dense and parents precede children.
	t.spans = append(t.spans, span{ID: id})
	t.mu.Unlock()
	return &handle{t: t, s: span{ID: id, Parent: parent, Name: name, Op: op, StartUs: time.Since(t.t0).Microseconds()}}
}

// id returns the span's id, 0 for a nil handle.
func (h *handle) id() uint64 {
	if h == nil {
		return 0
	}
	return h.s.ID
}

// end closes the span.
func (h *handle) end() {
	if h == nil {
		return
	}
	h.s.EndUs = time.Since(h.t.t0).Microseconds()
	h.t.mu.Lock()
	h.t.spans[h.s.ID-1] = h.s
	h.t.mu.Unlock()
}

// record adds an already-measured span.
func (t *tracer) record(name, op string, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: uint64(len(t.spans)) + 1, Parent: parent, Name: name, Op: op,
		StartUs: start.Sub(t.t0).Microseconds(), EndUs: end.Sub(t.t0).Microseconds()})
}

// write stores the spans and the host record as JSON under dir.
func (t *tracer) write(dir, name string, host hostRecord) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Host  hostRecord `json:"host"`
		Spans []span     `json:"spans"`
	}{host, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
