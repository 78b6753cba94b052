package telemetry

// ring is the spine's one bounded buffer: it keeps the newest entries and
// evicts the oldest. SpanRing, the flight Recorder and the Logger's recent
// entries are each a ring behind their own mutex; ring itself does no
// locking.
type ring[T any] struct {
	buf   []T
	next  int
	total uint64 // lifetime writes, to find the oldest slot once wrapped
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

// write stores v over the oldest entry. The slots are preallocated, so it
// copies a value and allocates nothing.
func (r *ring[T]) write(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.total++
}

// len reports how many entries are retained.
func (r *ring[T]) len() int {
	if r.total > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(r.total)
}

// read copies out the retained entries keep accepts (all of them when keep
// is nil), oldest first.
func (r *ring[T]) read(keep func(*T) bool) []T {
	n := r.len()
	start := 0
	if n == len(r.buf) {
		start = r.next // wrapped, or exactly full with next back at 0
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		v := &r.buf[(start+i)%len(r.buf)]
		if keep == nil || keep(v) {
			out = append(out, *v)
		}
	}
	return out
}
