package exchange

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
	"wspeer/internal/wsaddr"
)

// Errors surfaced by the correlation table.
var (
	// ErrTableFull means the table is at capacity and the registration was
	// shed rather than allowed to grow the table without bound.
	ErrTableFull = errors.New("exchange: correlation table full")
	// ErrClosed means the table was closed while the exchange was pending.
	ErrClosed = errors.New("exchange: correlation table closed")
)

// ExpiredError reports that no reply arrived for a message before its
// deadline; the table entry has been reclaimed.
type ExpiredError struct {
	MessageID string
	TTL       time.Duration
}

func (e *ExpiredError) Error() string {
	return fmt.Sprintf("exchange: no reply for %s within %s", e.MessageID, e.TTL)
}

// Outcome classifies what happened to an inbound reply.
type Outcome int

const (
	// Resolved: the reply matched a pending exchange and completed it.
	Resolved Outcome = iota
	// Orphan: the reply relates to nothing this table has ever seen
	// (mis-addressed, or the entry was evicted long ago).
	Orphan
	// Duplicate: the reply relates to an exchange that was already
	// resolved or expired (retransmission).
	Duplicate
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Resolved:
		return "resolved"
	case Orphan:
		return "orphan"
	case Duplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Future is the client's handle on a pending decoupled reply.
type Future struct {
	done chan struct{}
	mu   sync.Mutex
	msg  *Message
	err  error
}

func newFuture() *Future {
	return &Future{done: make(chan struct{})}
}

func (f *Future) complete(msg *Message, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-f.done:
		return // already completed
	default:
	}
	f.msg, f.err = msg, err
	close(f.done)
}

// Done returns a channel closed when the reply (or an error) is ready.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the reply arrives, the exchange expires, or ctx is
// done, whichever is first.
func (f *Future) Wait(ctx context.Context) (*Message, error) {
	select {
	case <-f.done:
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.msg, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TableOptions bound the correlation table.
type TableOptions struct {
	// Capacity is the maximum number of pending exchanges (default 4096).
	// Registrations beyond it are shed with ErrTableFull.
	Capacity int
	// TTL is the default per-exchange deadline (default 30s). A zero or
	// negative per-registration ttl falls back to it. Every entry carries
	// a timer, so an exchange whose reply never comes is reclaimed — the
	// table cannot leak.
	TTL time.Duration
	// DedupWindow is how many recently completed MessageIDs are remembered
	// for duplicate-reply detection (default 1024).
	DedupWindow int
}

func (o TableOptions) withDefaults() TableOptions {
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	if o.TTL <= 0 {
		o.TTL = 30 * time.Second
	}
	if o.DedupWindow <= 0 {
		o.DedupWindow = 1024
	}
	return o
}

type tableEntry struct {
	f     *Future
	timer *time.Timer
	start time.Time
}

// Table is the bounded, TTL'd correlation table: pending exchanges keyed
// by the request MessageID, resolved by the reply's RelatesTo.
type Table struct {
	opts TableOptions

	mu      sync.Mutex
	entries map[string]*tableEntry
	// recent remembers completed MessageIDs so retransmitted replies
	// classify as Duplicate rather than Orphan.
	recent *Window
	closed bool

	// Local stats (the telemetry instruments below are process-global and
	// shared across tables).
	resolved, expired, orphans, duplicates, shed int64

	inflightGauge *telemetry.Gauge
	expiredCtr    *telemetry.Counter
	orphanCtr     *telemetry.Counter
	duplicateCtr  *telemetry.Counter
	latencyHist   *telemetry.Histogram
	deliveredCtr  *telemetry.Counter
	unparsedCtr   *telemetry.Counter
}

// NewTable returns a correlation table with the given bounds.
func NewTable(opts TableOptions) *Table {
	m := telemetry.Default().Meter
	opts = opts.withDefaults()
	return &Table{
		opts:          opts,
		entries:       make(map[string]*tableEntry),
		recent:        NewWindow(opts.DedupWindow),
		inflightGauge: m.Gauge("exchange.inflight"),
		expiredCtr:    m.Counter("exchange.expired"),
		orphanCtr:     m.Counter("exchange.orphan"),
		duplicateCtr:  m.Counter("exchange.duplicate"),
		latencyHist:   m.Histogram("exchange.callback.latency"),
		deliveredCtr:  m.Counter("exchange.reply.in"),
		unparsedCtr:   m.Counter("exchange.reply.unparsed"),
	}
}

// Register adds a pending exchange keyed by messageID and returns its
// Future. ttl caps how long the entry may wait for its reply (0 means the
// table default). Registration is shed with ErrTableFull at capacity.
func (t *Table) Register(messageID string, ttl time.Duration) (*Future, error) {
	if messageID == "" {
		return nil, fmt.Errorf("exchange: register with empty MessageID")
	}
	if ttl <= 0 {
		ttl = t.opts.TTL
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := t.entries[messageID]; dup {
		t.mu.Unlock()
		return nil, fmt.Errorf("exchange: MessageID %s already pending", messageID)
	}
	if len(t.entries) >= t.opts.Capacity {
		t.shed++
		t.mu.Unlock()
		return nil, ErrTableFull
	}
	e := &tableEntry{f: newFuture(), start: time.Now()}
	e.timer = time.AfterFunc(ttl, func() { t.expire(messageID, ttl) })
	t.entries[messageID] = e
	t.inflightGauge.Add(1)
	t.mu.Unlock()
	return e.f, nil
}

// Resolve routes an inbound reply to the pending exchange it relates to.
// The returned Outcome says whether it matched, was a duplicate of an
// already-completed exchange, or relates to nothing known (orphan).
func (t *Table) Resolve(relatesTo string, msg *Message) Outcome {
	t.mu.Lock()
	e, ok := t.entries[relatesTo]
	if !ok {
		if t.recent.Seen(relatesTo) {
			t.duplicates++
			t.mu.Unlock()
			t.duplicateCtr.Inc()
			telemetry.Default().Log.Info(nil, "exchange: duplicate reply dropped",
				"relates_to", relatesTo)
			return Duplicate
		}
		t.orphans++
		t.mu.Unlock()
		t.orphanCtr.Inc()
		telemetry.Default().Log.Warn(nil, "exchange: orphan reply, no pending exchange",
			"relates_to", relatesTo)
		return Orphan
	}
	delete(t.entries, relatesTo)
	t.recent.Mark(relatesTo)
	t.resolved++
	elapsed := time.Since(e.start)
	t.mu.Unlock()

	e.timer.Stop()
	t.inflightGauge.Add(-1)
	t.latencyHist.Observe(elapsed)
	e.f.complete(msg, nil)
	return Resolved
}

// Deliver is the function a hosted reply endpoint feeds every inbound
// message to: parse the envelope, recover the WS-Addressing headers, and
// route the message to its pending exchange by RelatesTo. The message
// handed to the Future carries the parsed envelope, so the reply is parsed
// exactly once. Unparseable and uncorrelatable messages are counted, never
// fatal — a reply endpoint is reachable from the network and must shrug
// off junk.
func (t *Table) Deliver(body []byte) {
	t.deliveredCtr.Inc()
	env, err := soap.Parse(body)
	if err != nil {
		t.unparsedCtr.Inc()
		return
	}
	hdr, err := wsaddr.FromEnvelope(env)
	if err != nil || hdr.RelatesTo == "" {
		t.unparsedCtr.Inc()
		return
	}
	t.Resolve(hdr.RelatesTo, &Message{
		Endpoint:    hdr.To,
		Action:      hdr.Action,
		ContentType: env.Version().ContentType(),
		Body:        body,
		Headers:     hdr,
		Envelope:    env,
	})
}

// Cancel withdraws a pending exchange without completing its Future —
// the cleanup path when the request failed to send, so no reply can ever
// arrive. It reports whether the entry was still pending.
func (t *Table) Cancel(messageID string) bool {
	t.mu.Lock()
	e, ok := t.entries[messageID]
	if !ok {
		t.mu.Unlock()
		return false
	}
	delete(t.entries, messageID)
	t.recent.Mark(messageID)
	t.mu.Unlock()

	e.timer.Stop()
	t.inflightGauge.Add(-1)
	return true
}

// expire reclaims an entry whose reply never arrived (deadline-driven: the
// per-entry timer calls it, so abandoned exchanges cannot accumulate).
func (t *Table) expire(messageID string, ttl time.Duration) {
	t.mu.Lock()
	e, ok := t.entries[messageID]
	if !ok {
		t.mu.Unlock()
		return // resolved concurrently
	}
	delete(t.entries, messageID)
	t.recent.Mark(messageID)
	t.expired++
	t.mu.Unlock()

	t.inflightGauge.Add(-1)
	t.expiredCtr.Inc()
	telemetry.Default().Log.Warn(nil, "exchange: pending exchange expired, reply never arrived",
		"message_id", messageID, "ttl", ttl)
	e.f.complete(nil, &ExpiredError{MessageID: messageID, TTL: ttl})
}

// Len reports the number of pending exchanges.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Close fails every pending exchange with ErrClosed and rejects future
// registrations.
func (t *Table) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	pending := make([]*tableEntry, 0, len(t.entries))
	for id, e := range t.entries {
		delete(t.entries, id)
		t.recent.Mark(id)
		pending = append(pending, e)
	}
	t.mu.Unlock()
	for _, e := range pending {
		e.timer.Stop()
		t.inflightGauge.Add(-1)
		e.f.complete(nil, ErrClosed)
	}
}

// TableStats is a point-in-time snapshot of one table's counters.
type TableStats struct {
	Inflight   int
	Resolved   int64
	Expired    int64
	Orphans    int64
	Duplicates int64
	Shed       int64
}

// Stats snapshots the table's counters.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TableStats{
		Inflight:   len(t.entries),
		Resolved:   t.resolved,
		Expired:    t.expired,
		Orphans:    t.orphans,
		Duplicates: t.duplicates,
		Shed:       t.shed,
	}
}
