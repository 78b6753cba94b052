package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CallTable is the spine's per-(service, direction) call ledger: counts,
// failures and a latency histogram per row. Rows are atomic, so Record is
// lock-free after a row's first call (a read-locked map hit plus a few
// atomic adds — the always-on cost the fast-path benchmarks gate at zero
// allocations).
//
// The Default hub's table is fed by the core client (one row per invoked
// service, direction "client") and the engine's server terminal (one row
// per dispatched service, direction "server").
type CallTable struct {
	mu   sync.RWMutex
	rows map[callKey]*callRow
}

type callKey struct {
	service string
	dir     string
}

type callRow struct {
	calls    atomic.Int64
	failures atomic.Int64
	totalNS  atomic.Int64
	minNS    atomic.Int64 // math.MaxInt64 until the first call
	maxNS    atomic.Int64
	buckets  [NumBuckets]atomic.Int64
}

func newCallRow() *callRow {
	r := &callRow{}
	r.minNS.Store(math.MaxInt64)
	return r
}

// NewCallTable returns an empty table.
func NewCallTable() *CallTable {
	return &CallTable{rows: make(map[callKey]*callRow)}
}

// Record adds one completed call. dir is DirClient or DirServer.
func (t *CallTable) Record(service, dir string, elapsed time.Duration, failed bool) {
	if t == nil {
		return
	}
	if elapsed < 0 {
		elapsed = 0
	}
	r := t.row(service, dir)
	r.calls.Add(1)
	if failed {
		r.failures.Add(1)
	}
	ns := elapsed.Nanoseconds()
	r.totalNS.Add(ns)
	casMin(&r.minNS, ns)
	casMax(&r.maxNS, ns)
	r.buckets[bucketFor(elapsed)].Add(1)
}

func (t *CallTable) row(service, dir string) *callRow {
	k := callKey{service: service, dir: dir}
	t.mu.RLock()
	r := t.rows[k]
	t.mu.RUnlock()
	if r != nil {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r = t.rows[k]; r == nil {
		r = newCallRow()
		t.rows[k] = r
	}
	return r
}

// CallSnapshot is one service+direction row of a CallTable snapshot.
// MeanLatency, P50 and P99 are computed at snapshot time so the JSON form
// carries them without the reader re-deriving buckets.
type CallSnapshot struct {
	Service  string `json:"service"`
	Dir      string `json:"dir"`
	Calls    int64  `json:"calls"`
	Failures int64  `json:"failures"`
	// TotalLatency summed over all calls.
	TotalLatency time.Duration `json:"total_ns"`
	MinLatency   time.Duration `json:"min_ns"`
	MaxLatency   time.Duration `json:"max_ns"`
	MeanLatency  time.Duration `json:"mean_ns"`
	P50          time.Duration `json:"p50_ns"`
	P99          time.Duration `json:"p99_ns"`
	// Buckets counts calls at or under each BucketBounds entry, plus a
	// final overflow bucket.
	Buckets []int64 `json:"buckets"`
}

// Quantile estimates an arbitrary latency quantile (0..1) for the row.
func (s CallSnapshot) Quantile(q float64) time.Duration {
	return bucketQuantile(s.Buckets, q, s.MinLatency, s.MaxLatency)
}

func (r *callRow) snapshot(k callKey) CallSnapshot {
	s := CallSnapshot{
		Service:      k.service,
		Dir:          k.dir,
		Calls:        r.calls.Load(),
		Failures:     r.failures.Load(),
		TotalLatency: time.Duration(r.totalNS.Load()),
		MaxLatency:   time.Duration(r.maxNS.Load()),
		Buckets:      make([]int64, NumBuckets),
	}
	if min := r.minNS.Load(); min != math.MaxInt64 {
		s.MinLatency = time.Duration(min)
	}
	for i := range r.buckets {
		s.Buckets[i] = r.buckets[i].Load()
	}
	if s.Calls > 0 {
		s.MeanLatency = s.TotalLatency / time.Duration(s.Calls)
	}
	s.P50 = s.Quantile(0.50)
	s.P99 = s.Quantile(0.99)
	return s
}

// Snapshot copies every row, ordered by service name then direction.
func (t *CallTable) Snapshot() []CallSnapshot {
	t.mu.RLock()
	keys := make([]callKey, 0, len(t.rows))
	rows := make([]*callRow, 0, len(t.rows))
	for k, r := range t.rows {
		keys = append(keys, k)
		rows = append(rows, r)
	}
	t.mu.RUnlock()
	out := make([]CallSnapshot, len(rows))
	for i, r := range rows {
		out[i] = r.snapshot(keys[i])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Dir < out[j].Dir
	})
	return out
}

// Service returns the snapshot row for one service+direction (a zero row
// when the pair has not been seen).
func (t *CallTable) Service(service, dir string) CallSnapshot {
	k := callKey{service: service, dir: dir}
	t.mu.RLock()
	r := t.rows[k]
	t.mu.RUnlock()
	if r == nil {
		return CallSnapshot{Service: service, Dir: dir, Buckets: make([]int64, NumBuckets)}
	}
	return r.snapshot(k)
}
