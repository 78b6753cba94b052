package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count. Methods are safe on
// a nil receiver so optional instrumentation degrades to a no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value that may move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is an atomic latency histogram over the spine's shared bucket
// bounds (BucketBounds plus an overflow bucket): the Meter's named
// histograms, each CallTable row and the flight recorder's rolling
// distribution are all one of these. The zero value is ready to use, and
// the count of observations is the sum of the buckets, so recording does
// not pay for a counter of its own.
type Histogram struct {
	sumNS   atomic.Int64
	minNS1  atomic.Int64 // the smallest observation plus one; 0 until the first
	maxNS   atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Observe records one duration. Lock-free: a handful of atomic ops.
func (h *Histogram) Observe(elapsed time.Duration) {
	if h == nil {
		return
	}
	if elapsed < 0 {
		elapsed = 0
	}
	ns := elapsed.Nanoseconds()
	h.sumNS.Add(ns)
	for {
		cur := h.minNS1.Load()
		if (cur != 0 && ns+1 >= cur) || h.minNS1.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketFor(elapsed)].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram, with p50/p99
// estimated by linear interpolation within the containing bucket.
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	// Buckets counts observations at or under each BucketBounds entry,
	// plus a final overflow bucket.
	Buckets []int64       `json:"buckets"`
	P50     time.Duration `json:"p50_ns"`
	P99     time.Duration `json:"p99_ns"`
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates an arbitrary quantile (0..1) from the buckets.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	return bucketQuantile(s.Buckets, q, s.Min, s.Max)
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Sum:     time.Duration(h.sumNS.Load()),
		Max:     time.Duration(h.maxNS.Load()),
		Buckets: make([]int64, NumBuckets),
	}
	if min1 := h.minNS1.Load(); min1 != 0 {
		s.Min = time.Duration(min1 - 1)
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.P50 = s.Quantile(0.50)
	s.P99 = s.Quantile(0.99)
	return s
}

// Meter is a named instrument registry. Lookup is a read-locked map hit;
// instrumented packages call Counter/Gauge/Histogram once at init and
// keep the returned handle, so steady-state recording never touches the
// registry at all.
type Meter struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMeter returns an empty registry.
func NewMeter() *Meter {
	return &Meter{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// instrument returns (creating if needed) the entry of one of the spine's
// registries: a read-locked map hit once the entry exists. Every
// instrument's zero value is ready to use.
func instrument[K comparable, T any](mu *sync.RWMutex, m map[K]*T, key K) *T {
	mu.RLock()
	v := m[key]
	mu.RUnlock()
	if v != nil {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v = m[key]; v == nil {
		v = new(T)
		m[key] = v
	}
	return v
}

// Counter returns (creating if needed) the named counter.
func (m *Meter) Counter(name string) *Counter { return instrument(&m.mu, m.counters, name) }

// Gauge returns (creating if needed) the named gauge.
func (m *Meter) Gauge(name string) *Gauge { return instrument(&m.mu, m.gauges, name) }

// Histogram returns (creating if needed) the named histogram.
func (m *Meter) Histogram(name string) *Histogram { return instrument(&m.mu, m.hists, name) }

// snapshot copies every instrument's current value.
func (m *Meter) snapshot() (counters, gauges map[string]int64, hists map[string]HistogramSnapshot) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	counters = make(map[string]int64, len(m.counters))
	for name, c := range m.counters {
		counters[name] = c.Value()
	}
	gauges = make(map[string]int64, len(m.gauges))
	for name, g := range m.gauges {
		gauges[name] = g.Value()
	}
	hists = make(map[string]HistogramSnapshot, len(m.hists))
	for name, h := range m.hists {
		hists[name] = h.Snapshot()
	}
	return counters, gauges, hists
}
