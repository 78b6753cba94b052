package telemetry

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP request header carrying trace context between a
// client invocation and the server dispatch it causes. The value is
// FormatTraceHeader's "traceID-spanID" form; transports only attach it
// when the outgoing context actually carries a span, so untraced traffic
// is byte-identical to pre-telemetry traffic. The spelling is canonical
// MIME form — net/http's Header.Get canonicalises its argument and
// allocates a converted copy per call for any other casing, which would
// put an allocation on every server request, traced or not.
const TraceHeader = "X-Wspeer-Trace"

// SpanContext is the propagated identity of a span: enough for a child
// started in another process (or another layer) to link back to it.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// spanCtxKey carries a SpanContext in a context.Context.
type spanCtxKey struct{}

// ContextWithSpanContext returns a context carrying the given propagated
// span identity — what a server host calls after extracting TraceHeader,
// so the dispatch span it starts links to the remote client span.
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFromContext extracts the propagated span identity, if any.
func SpanContextFromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// FormatTraceHeader renders a SpanContext for the wire.
func FormatTraceHeader(sc SpanContext) string {
	return fmt.Sprintf("%016x-%016x", sc.TraceID, sc.SpanID)
}

// ParseTraceHeader parses FormatTraceHeader's form; ok is false for
// anything malformed (the caller then just starts a fresh trace).
func ParseTraceHeader(s string) (SpanContext, bool) {
	t, p, found := strings.Cut(s, "-")
	if !found {
		return SpanContext{}, false
	}
	traceID, err := strconv.ParseUint(t, 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	spanID, err := strconv.ParseUint(p, 16, 64)
	if err != nil || traceID == 0 || spanID == 0 {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: traceID, SpanID: spanID}, true
}

// Tracer hands out spans. It is disabled — StartSpan returns a nil span
// and allocates nothing — until a Sink is attached with SetSink.
type Tracer struct {
	sink atomic.Pointer[sinkHolder]
	ids  atomic.Uint64
}

// sinkHolder boxes the Sink interface so it can live in an
// atomic.Pointer (interfaces themselves are two words).
type sinkHolder struct{ s Sink }

// NewTracer returns a disabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SetSink attaches (or, with nil, detaches) the tracer's sink and returns
// the previous one so tests can restore it. Spans already started keep
// delivering to whatever sink is attached when they End.
func (t *Tracer) SetSink(s Sink) Sink {
	var h *sinkHolder
	if s != nil {
		h = &sinkHolder{s: s}
	}
	old := t.sink.Swap(h)
	if old == nil {
		return nil
	}
	return old.s
}

// StartSpan begins a span. With no sink attached it returns (nil, ctx)
// untouched — the zero-cost disabled path; every *Span method is safe on
// the nil result. With a sink, the span links to any SpanContext already
// in ctx (a parent span in this process, or a remote parent extracted
// from TraceHeader) and the returned context carries the new span's
// identity for children and transports.
func (t *Tracer) StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	if t.sink.Load() == nil {
		return nil, ctx
	}
	sp := &Span{tracer: t, name: name, start: time.Now(), spanID: t.ids.Add(1)}
	if parent, ok := SpanContextFromContext(ctx); ok {
		sp.traceID, sp.parentID = parent.TraceID, parent.SpanID
	} else {
		sp.traceID = t.ids.Add(1)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return sp, ContextWithSpanContext(ctx, SpanContext{TraceID: sp.traceID, SpanID: sp.spanID})
}

// Annotation is one timestamped note on a span.
type Annotation struct {
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// Span is one timed unit of work. All methods are safe on a nil receiver
// (the disabled-tracer case) and safe for concurrent use.
type Span struct {
	tracer   *Tracer
	name     string
	traceID  uint64
	spanID   uint64
	parentID uint64
	start    time.Time

	mu          sync.Mutex
	ended       bool
	service     string
	op          string
	endpoint    string
	dir         string
	err         error
	annotations []Annotation
}

// Context returns the span's propagable identity (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID}
}

// SetService records the service the span works on behalf of.
func (s *Span) SetService(service string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.service = service
	s.mu.Unlock()
}

// SetOp records the operation name (servers resolve it mid-dispatch).
func (s *Span) SetOp(op string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.op = op
	s.mu.Unlock()
}

// SetEndpoint records the endpoint the span addressed.
func (s *Span) SetEndpoint(endpoint string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.endpoint = endpoint
	s.mu.Unlock()
}

// SetDir records the span's side of the messaging system (DirClient or
// DirServer).
func (s *Span) SetDir(dir string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dir = dir
	s.mu.Unlock()
}

// SetError records the span's outcome; a nil error clears it.
func (s *Span) SetError(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// Annotate appends a timestamped note.
func (s *Span) Annotate(msg string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.annotations = append(s.annotations, Annotation{Time: now, Msg: msg})
	s.mu.Unlock()
}

// Annotatef appends a formatted timestamped note. Callers on hot paths
// should guard with `if span != nil` so the arguments are not boxed for a
// disabled tracer.
func (s *Span) Annotatef(format string, args ...interface{}) {
	if s == nil {
		return
	}
	s.Annotate(fmt.Sprintf(format, args...))
}

// End completes the span and delivers it to the tracer's sink. Second and
// later Ends are no-ops, as is End on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	data := SpanData{
		Name:     s.name,
		TraceID:  s.traceID,
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Service:  s.service,
		Op:       s.op,
		Endpoint: s.endpoint,
		Dir:      s.dir,
		Start:    s.start,
		End:      end,
	}
	if s.err != nil {
		data.Err = s.err.Error()
	}
	if len(s.annotations) > 0 {
		data.Annotations = append([]Annotation(nil), s.annotations...)
	}
	s.mu.Unlock()
	if h := s.tracer.sink.Load(); h != nil {
		h.s.OnSpanEnd(data)
	}
}

// SpanData is the immutable record of an ended span, as delivered to
// sinks.
type SpanData struct {
	Name        string       `json:"name"`
	TraceID     uint64       `json:"trace_id"`
	SpanID      uint64       `json:"span_id"`
	ParentID    uint64       `json:"parent_id,omitempty"`
	Service     string       `json:"service,omitempty"`
	Op          string       `json:"op,omitempty"`
	Endpoint    string       `json:"endpoint,omitempty"`
	Dir         string       `json:"dir,omitempty"`
	Start       time.Time    `json:"start"`
	End         time.Time    `json:"end"`
	Err         string       `json:"err,omitempty"`
	Annotations []Annotation `json:"annotations,omitempty"`
}

// Duration returns the span's elapsed time.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }
