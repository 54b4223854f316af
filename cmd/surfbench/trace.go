package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// traceHeader carries a traced operation's id from the client through
// the router (which copies end-to-end headers upstream) to the replica.
// Requests without it are never recorded, so one traced fleet serves
// traced and untraced operations side by side.
const traceHeader = "X-Bench-Trace"

// Span names. The layer boundaries they time, outermost first:
//
//	client  ⊃ router ⊃ hop ⊃ replica    one compile-path request
//	session ⊃ replica, session ⊃ window  one /decode session (no router)
//	cell                                 one Monte Carlo cell
const (
	spanClient  = "client"
	spanRouter  = "router"
	spanHop     = "hop"
	spanReplica = "replica"
	spanSession = "session"
	spanWindow  = "window"
	spanCell    = "cell"
)

// span is one timed layer boundary of one traced operation. Spans of
// one operation share an id; Attr carries a number the layer reported
// about itself (a window's server-side decode_us).
type span struct {
	id         string
	name       string
	start, end time.Duration // since the tracer's epoch
	attr       float64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory; the benchmark writes them out at exit.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(id, name string, start, end time.Duration, attr float64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, name: name, start: start, end: end, attr: attr})
	t.mu.Unlock()
}

// drain returns the spans recorded so far and starts a fresh record.
func (t *tracer) drain() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// byID groups spans by operation id and name.
func byID(spans []span) map[string]map[string]span {
	out := map[string]map[string]span{}
	for _, s := range spans {
		m := out[s.id]
		if m == nil {
			m = map[string]span{}
			out[s.id] = m
		}
		m[s.name] = s
	}
	return out
}

// spanHandler records the wrapped handler's span for traced requests.
type spanHandler struct {
	tr   *tracer
	name string
	next http.Handler
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(traceHeader)
	if id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.add(id, h.name, start, h.tr.now(), 0)
}

// hopTransport is the router's upstream round-tripper in traced runs:
// the hop span runs from sending the request to the replica until the
// router has read the last byte of its reply.
type hopTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := req.Header.Get(traceHeader)
	if id == "" {
		return t.next.RoundTrip(req)
	}
	start := t.tr.now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.tr.add(id, spanHop, start, t.tr.now(), 0)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.add(id, spanHop, start, t.tr.now(), 0) }}
	return resp, nil
}

// spanBody ends a span at the body's EOF or Close, whichever is first.
type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// spanRecord is the spans file's row.
type spanRecord struct {
	Run     string  `json:"run"`
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Attr    float64 `json:"attr,omitempty"`
}

// spanParent names the span that caused s among its operation's spans.
func spanParent(name string, siblings map[string]span) string {
	switch name {
	case spanRouter:
		return spanClient
	case spanHop:
		return spanRouter
	case spanWindow:
		return spanSession
	case spanReplica:
		if _, ok := siblings[spanHop]; ok {
			return spanHop
		}
		return spanSession
	}
	return ""
}

// writeSpans writes every run's spans as one JSON array.
func writeSpans(path string, runs []*run) error {
	var out []spanRecord
	for _, r := range runs {
		ops := byID(r.spans)
		for _, s := range r.spans {
			out = append(out, spanRecord{
				Run: r.label, ID: s.id, Name: s.name, Parent: spanParent(s.name, ops[s.id]),
				StartUS: us(s.start), EndUS: us(s.end), Attr: s.attr,
			})
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
