package telemetry

import "sync"

// Sink receives ended spans. Implementations must be safe for concurrent
// use; OnSpanEnd runs on whatever goroutine ended the span, so it should
// return quickly (queue or drop under load rather than block dispatch).
type Sink interface {
	OnSpanEnd(SpanData)
}

// Collector is a bounded in-memory Sink for tests and debugging: spans
// accumulate in end order until the capacity is reached, after which new
// spans are dropped (and counted).
type Collector struct {
	mu      sync.Mutex
	spans   []SpanData
	cap     int
	dropped int64
}

// NewCollector returns a collector retaining up to capacity spans
// (default 4096 for capacity <= 0).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Collector{cap: capacity}
}

// OnSpanEnd implements Sink.
func (c *Collector) OnSpanEnd(d SpanData) {
	c.mu.Lock()
	if len(c.spans) < c.cap {
		c.spans = append(c.spans, d)
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// Spans returns a copy of everything collected, in end order.
func (c *Collector) Spans() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.spans...)
}

// ByService returns collected spans for one service, in end order.
func (c *Collector) ByService(service string) []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []SpanData
	for _, d := range c.spans {
		if d.Service == service {
			out = append(out, d)
		}
	}
	return out
}

// Len reports how many spans are retained.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Dropped reports how many spans overflowed the capacity.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Reset discards collected spans and the drop count.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.dropped = 0
	c.mu.Unlock()
}
