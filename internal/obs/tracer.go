package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are stored as
// strings so records serialize without reflection surprises; use the
// typed setters on Span to format numbers.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// SpanRecord is the exported form of a completed span. Start is a unix
// timestamp; Dur is measured on the monotonic clock, so spans order and
// nest correctly even across wall-clock adjustments.
type SpanRecord struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute and whether it is set.
func (r SpanRecord) Attr(key string) (string, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Exporter receives every completed span. Implementations must be safe
// for concurrent use; FlightRecorder and JSONLExporter both qualify.
type Exporter interface {
	ExportSpan(SpanRecord)
}

// Tracer produces nested spans and fans completed ones out to its
// recorder and exporters. A nil *Tracer is the disabled tracer: every
// method on it — and on the nil *Span it hands back — is a no-op that
// performs no allocation, so instrumentation can stay unconditionally
// in hot paths.
type Tracer struct {
	rec  *FlightRecorder
	exps atomic.Pointer[[]Exporter]
	ids  atomic.Uint64
}

// NewTracer builds an enabled tracer. rec may be nil (no flight
// recording); exporters may be empty.
func NewTracer(rec *FlightRecorder, exporters ...Exporter) *Tracer {
	t := &Tracer{rec: rec}
	t.exps.Store(&exporters)
	return t
}

// AddExporter registers another sink for completed spans. Safe to call
// concurrently with span delivery; spans already in flight may miss the
// new exporter.
func (t *Tracer) AddExporter(e Exporter) {
	if t == nil || e == nil {
		return
	}
	for {
		old := t.exps.Load()
		next := append(append([]Exporter(nil), *old...), e)
		if t.exps.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Recorder returns the tracer's flight recorder (nil if none, or if the
// tracer itself is nil/disabled).
func (t *Tracer) Recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// StartSpan opens a root span of a new trace. The returned span is nil
// — and free — when the tracer is disabled.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	now := time.Now()
	return &Span{
		tracer: t,
		rec:    SpanRecord{Trace: id, ID: id, Name: name, Start: now.UnixNano()},
		begun:  now,
	}
}

// Span is one timed unit of work. Spans are not safe for concurrent
// mutation (one goroutine owns a span), but End is idempotent and
// completed records may be read from anywhere.
type Span struct {
	tracer *Tracer
	rec    SpanRecord
	begun  time.Time // monotonic anchor
	mu     sync.Mutex
	ended  bool
}

// StartChild opens a span nested under s, inheriting its trace.
// Children of a nil span are nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	id := s.tracer.ids.Add(1)
	now := time.Now()
	return &Span{
		tracer: s.tracer,
		rec: SpanRecord{
			Trace:  s.rec.Trace,
			ID:     id,
			Parent: s.rec.ID,
			Name:   name,
			Start:  now.UnixNano(),
		},
		begun: now,
	}
}

// SetAttr annotates the span with a string value.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value. Taking int64 by
// value keeps the disabled path free of interface boxing.
func (s *Span) SetInt(key string, val int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(val, 10))
}

// SetFloat annotates the span with a float value.
func (s *Span) SetFloat(key string, val float64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatFloat(val, 'g', -1, 64))
}

// End stamps the span's duration from the monotonic clock and delivers
// the record to the tracer's recorder and exporters. Only the first End
// delivers; later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec.Dur = int64(time.Since(s.begun))
	rec := s.rec
	s.mu.Unlock()
	if r := s.tracer.rec; r != nil {
		r.ExportSpan(rec)
	}
	for _, e := range *s.tracer.exps.Load() {
		e.ExportSpan(rec)
	}
}

// JSONLExporter writes each completed span as one JSON line, ready for
// jq or any trace viewer that eats JSONL.
type JSONLExporter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLExporter builds an exporter over w. The caller keeps
// ownership of w (and closes it after the last span).
func NewJSONLExporter(w io.Writer) *JSONLExporter {
	return &JSONLExporter{enc: json.NewEncoder(w)}
}

// ExportSpan implements Exporter.
func (e *JSONLExporter) ExportSpan(rec SpanRecord) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Span records are plain numbers and strings; an encode error means
	// the sink failed, which the owner of the writer observes on close.
	_ = e.enc.Encode(rec)
}
