package telemetry

import (
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
	failures atomic.Int64
	latency  Histogram // its observations are the row's calls
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
	r := t.row(service, dir)
	if failed {
		r.failures.Add(1)
	}
	r.latency.Observe(elapsed)
}

func (t *CallTable) row(service, dir string) *callRow {
	return instrument(&t.mu, t.rows, callKey{service: service, dir: dir})
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

func (r *callRow) snapshot(k callKey) CallSnapshot {
	h := r.latency.Snapshot()
	return CallSnapshot{
		Service:      k.service,
		Dir:          k.dir,
		Calls:        h.Count,
		Failures:     r.failures.Load(),
		TotalLatency: h.Sum,
		MinLatency:   h.Min,
		MaxLatency:   h.Max,
		MeanLatency:  h.Mean(),
		P50:          h.P50,
		P99:          h.P99,
		Buckets:      h.Buckets,
	}
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
