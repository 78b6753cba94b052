package telemetry

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities.
type Level int32

// Log levels, least to most severe. LevelOff disables everything.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "off"
	}
}

// LogEntry is one structured log event: a message, alternating key/value
// pairs, and the trace/span identity stamped from the caller's context.
type LogEntry struct {
	Time    time.Time     `json:"time"`
	Level   Level         `json:"level"`
	Msg     string        `json:"msg"`
	TraceID uint64        `json:"trace_id,omitempty"`
	SpanID  uint64        `json:"span_id,omitempty"`
	KV      []interface{} `json:"kv,omitempty"`
}

// LogSink receives emitted entries. Implementations must be safe for
// concurrent use and should return quickly — WriteLog runs on the logging
// goroutine.
type LogSink interface {
	WriteLog(LogEntry)
}

// logSinkHolder boxes a LogSink for atomic.Pointer.
type logSinkHolder struct{ s LogSink }

// Logger is the spine's zero-dependency structured leveled logger.
// Entries carry key-value pairs and are auto-stamped with the trace/span
// identity found in the caller's context, so a log line joins back to the
// span and flight record for the same call. The level is atomic (cheap to
// check, safe to flip at runtime); output goes to a pluggable sink.
//
// Every emitted entry is also retained in a small bounded ring, sink or
// no sink, so recent warnings are queryable in-process (Recent) and over
// /debug/wspeer even when nothing is tailing stderr. By default no
// external sink is attached: a library should not write to a process's
// stderr uninvited. SetOutput(os.Stderr) opts in.
type Logger struct {
	level atomic.Int32
	sink  atomic.Pointer[logSinkHolder]

	mu     sync.Mutex
	recent ring[LogEntry]
}

// loggerRingCap bounds the in-memory recent-entry ring.
const loggerRingCap = 256

// NewLogger returns a logger at LevelWarn with no external sink.
func NewLogger() *Logger {
	l := &Logger{recent: newRing[LogEntry](loggerRingCap)}
	l.level.Store(int32(LevelWarn))
	return l
}

// SetLevel sets the minimum emitted level.
func (l *Logger) SetLevel(v Level) {
	if l != nil {
		l.level.Store(int32(v))
	}
}

// Enabled reports whether entries at v would be emitted. Callers passing
// expensive arguments should guard with it.
func (l *Logger) Enabled(v Level) bool {
	return l != nil && v >= Level(l.level.Load()) && v < LevelOff
}

// SetSink attaches (nil detaches) the external sink and returns the
// previous one.
func (l *Logger) SetSink(s LogSink) LogSink {
	if l == nil {
		return nil
	}
	var h *logSinkHolder
	if s != nil {
		h = &logSinkHolder{s: s}
	}
	old := l.sink.Swap(h)
	if old == nil {
		return nil
	}
	return old.s
}

// SetOutput attaches a sink rendering each entry as one logfmt line on w
// (nil detaches). Returns the previous sink.
func (l *Logger) SetOutput(w io.Writer) LogSink {
	if w == nil {
		return l.SetSink(nil)
	}
	return l.SetSink(&writerSink{w: w})
}

// writerSink renders entries as logfmt lines on an io.Writer, serialised
// by a mutex so concurrent lines don't interleave.
type writerSink struct {
	mu sync.Mutex
	w  io.Writer
}

// WriteLog implements LogSink.
func (s *writerSink) WriteLog(e LogEntry) {
	line := e.Format()
	s.mu.Lock()
	io.WriteString(s.w, line)
	io.WriteString(s.w, "\n")
	s.mu.Unlock()
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(ctx context.Context, msg string, kv ...interface{}) {
	l.log(ctx, LevelDebug, msg, kv)
}

// Info logs at LevelInfo.
func (l *Logger) Info(ctx context.Context, msg string, kv ...interface{}) {
	l.log(ctx, LevelInfo, msg, kv)
}

// Warn logs at LevelWarn.
func (l *Logger) Warn(ctx context.Context, msg string, kv ...interface{}) {
	l.log(ctx, LevelWarn, msg, kv)
}

// Error logs at LevelError.
func (l *Logger) Error(ctx context.Context, msg string, kv ...interface{}) {
	l.log(ctx, LevelError, msg, kv)
}

func (l *Logger) log(ctx context.Context, v Level, msg string, kv []interface{}) {
	if !l.Enabled(v) {
		return
	}
	e := LogEntry{Time: time.Now(), Level: v, Msg: msg, KV: kv}
	if sc, ok := SpanContextFromContext(ctx); ok {
		e.TraceID, e.SpanID = sc.TraceID, sc.SpanID
	}
	l.mu.Lock()
	l.recent.write(e)
	l.mu.Unlock()
	if h := l.sink.Load(); h != nil {
		h.s.WriteLog(e)
	}
}

// Recent returns up to max retained entries (0 = all), oldest first.
func (l *Logger) Recent(max int) []LogEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := l.recent.read(nil)
	l.mu.Unlock()
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Format renders the entry as one logfmt line:
//
//	ts=2026-08-08T12:00:00.000Z level=warn msg="breaker opened" trace=... key=value
func (e LogEntry) Format() string {
	var b strings.Builder
	b.Grow(96 + 16*len(e.KV))
	b.WriteString("ts=")
	b.WriteString(e.Time.UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(e.Level.String())
	b.WriteString(" msg=")
	b.WriteString(logfmtValue(e.Msg))
	if e.TraceID != 0 {
		b.WriteString(" trace=")
		writeHex16(&b, e.TraceID)
		b.WriteString(" span=")
		writeHex16(&b, e.SpanID)
	}
	for i := 0; i+1 < len(e.KV); i += 2 {
		b.WriteString(" ")
		b.WriteString(logfmtKey(e.KV[i]))
		b.WriteString("=")
		b.WriteString(logfmtValue(e.KV[i+1]))
	}
	if len(e.KV)%2 == 1 {
		b.WriteString(" _odd=")
		b.WriteString(logfmtValue(e.KV[len(e.KV)-1]))
	}
	return b.String()
}

// writeHex16 writes v as 16 lowercase hex digits.
func writeHex16(b *strings.Builder, v uint64) {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b.WriteByte(digits[(v>>uint(shift))&0xf])
	}
}

// logfmtKey renders a KV key (expected string; anything else is
// stringified with the unsafe characters replaced).
func logfmtKey(k interface{}) string {
	s, ok := k.(string)
	if !ok {
		s = fmt.Sprint(k)
	}
	if strings.ContainsAny(s, " =\"\n") {
		s = strings.Map(func(r rune) rune {
			switch r {
			case ' ', '=', '"', '\n':
				return '_'
			}
			return r
		}, s)
	}
	return s
}

// logfmtValue renders a KV value, quoting when it contains spaces,
// quotes or equals signs.
func logfmtValue(v interface{}) string {
	var s string
	switch t := v.(type) {
	case string:
		s = t
	case error:
		if t == nil {
			s = ""
		} else {
			s = t.Error()
		}
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case uint64:
		return strconv.FormatUint(t, 10)
	case bool:
		return strconv.FormatBool(t)
	case time.Duration:
		return t.String()
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	case fmt.Stringer:
		s = t.String()
	default:
		s = fmt.Sprint(v)
	}
	if s == "" {
		return `""`
	}
	if !strings.ContainsAny(s, " =\"\n") {
		return s
	}
	return strconv.Quote(s)
}
