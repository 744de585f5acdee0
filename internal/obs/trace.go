package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanEvent is one timestamped annotation inside a span.
type SpanEvent struct {
	// AtMS is the event offset from span start in milliseconds.
	AtMS   float64 `json:"at_ms"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
}

// SpanRecord is the immutable snapshot of a finished span, as served by
// GET /trace.
type SpanRecord struct {
	ID         uint64      `json:"id"`
	Op         string      `json:"op"`
	Client     int         `json:"client"`
	URL        string      `json:"url,omitempty"`
	Start      time.Time   `json:"start"`
	DurationMS float64     `json:"duration_ms"`
	Outcome    string      `json:"outcome,omitempty"`
	Error      string      `json:"error,omitempty"`
	Events     []SpanEvent `json:"events,omitempty"`
}

// Span is one in-flight request trace. All methods are safe on a nil
// receiver (tracing disabled) and safe for concurrent use: the losing arm
// of a hedged fetch may annotate the span after the winner finished it, in
// which case the late event is dropped.
type Span struct {
	tracer *Tracer
	id     uint64
	op     string
	start  time.Time

	mu      sync.Mutex
	done    bool
	client  int
	url     string
	outcome string
	err     string
	events  []SpanEvent
}

// SetClient records the requesting client id.
func (s *Span) SetClient(id int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.client = id
	}
	s.mu.Unlock()
}

// SetURL records the requested URL.
func (s *Span) SetURL(url string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.url = url
	}
	s.mu.Unlock()
}

// Event appends a timestamped annotation.
func (s *Span) Event(name, detail string) {
	if s == nil {
		return
	}
	at := time.Since(s.start)
	s.mu.Lock()
	if !s.done {
		s.events = append(s.events, SpanEvent{
			AtMS:   float64(at.Microseconds()) / 1e3,
			Name:   name,
			Detail: detail,
		})
	}
	s.mu.Unlock()
}

// Finish seals the span with its outcome (and optional error) and hands the
// record to the tracer's ring buffer. Later Finish or Event
// calls are no-ops.
func (s *Span) Finish(outcome string, err error) {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.outcome = outcome
	if err != nil {
		s.err = err.Error()
	}
	rec := SpanRecord{
		ID:         s.id,
		Op:         s.op,
		Client:     s.client,
		URL:        s.url,
		Start:      s.start,
		DurationMS: float64(dur.Microseconds()) / 1e3,
		Outcome:    s.outcome,
		Error:      s.err,
		Events:     s.events,
	}
	s.events = nil
	s.mu.Unlock()
	s.tracer.record(rec)
}

// Tracer keeps the last N finished spans in a ring buffer.
type Tracer struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	ring  []SpanRecord
	next  int // ring insertion cursor
	total uint64
}

// DefaultTraceDepth is the ring size used when NewTracer is given n <= 0.
const DefaultTraceDepth = 256

// NewTracer returns a tracer retaining the last n finished spans.
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultTraceDepth
	}
	return &Tracer{ring: make([]SpanRecord, 0, n)}
}

// StartSpan opens a span for the named operation. A nil tracer returns a
// nil span, on which every method is a no-op — callers never branch.
func (t *Tracer) StartSpan(op string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tracer: t,
		id:     t.nextID.Add(1),
		op:     op,
		start:  time.Now(),
		client: -1,
	}
}

func (t *Tracer) record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.total++
	t.mu.Unlock()
}

// Total reports how many spans have finished since the tracer was created.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Last returns up to n most recent finished spans, newest first.
func (t *Tracer) Last(n int) []SpanRecord {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]SpanRecord, 0, n)
	// Newest element sits just before the insertion cursor once the ring
	// has wrapped; before that, it is the last appended element.
	idx := t.next - 1
	if len(t.ring) < cap(t.ring) {
		idx = len(t.ring) - 1
	}
	for i := 0; i < n; i++ {
		if idx < 0 {
			idx += len(t.ring)
		}
		out = append(out, t.ring[idx])
		idx--
	}
	return out
}

// Handler serves the ring buffer as a JSON array, newest first — mount it
// at GET /trace. ?n=K bounds the result (default and max: ring depth).
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		n := cap(t.ring)
		if s := req.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			if v < n {
				n = v
			}
		}
		recs := t.Last(n)
		if recs == nil {
			recs = []SpanRecord{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(recs)
	})
}

// spanKey is the context key for the active span.
type spanKey struct{}

// WithSpan returns a context carrying s.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom extracts the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
