package exchange

// Window is a bounded FIFO window of recently seen message IDs, each with
// optional replay bytes. It is the one duplicate-detection structure of
// the exchange layer: the correlation table remembers completed exchanges
// in one so a retransmitted reply classifies as Duplicate rather than
// Orphan, and a provider remembers served requests (and the replies it
// sent) in one so a retransmitted request is answered from the window
// instead of running the operation again.
//
// A Window is not safe for concurrent use; its owner serialises access
// (the Table under its own mutex).
type Window struct {
	capacity int
	byID     map[string][]byte // nil until Store attaches the replay bytes
	ring     []string          // insertion order; overwritten at pos once full
	pos      int
}

// NewWindow returns a window remembering the last capacity IDs.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{capacity: capacity, byID: make(map[string][]byte)}
}

// Mark records id as seen. For an ID already in the window it changes
// nothing and returns seen == true with the replay bytes stored for it
// (nil while the first copy is still in flight, or was never answered);
// a new ID evicts the oldest one once the window is full.
func (w *Window) Mark(id string) (replay []byte, seen bool) {
	if replay, seen = w.byID[id]; seen {
		return replay, true
	}
	if len(w.ring) < w.capacity {
		w.ring = append(w.ring, id)
	} else {
		delete(w.byID, w.ring[w.pos])
		w.ring[w.pos] = id
		w.pos = (w.pos + 1) % w.capacity
	}
	w.byID[id] = nil
	return nil, false
}

// Seen reports whether id is in the window.
func (w *Window) Seen(id string) bool {
	_, seen := w.byID[id]
	return seen
}

// Store attaches replay bytes to an ID already in the window; bytes for
// an ID that was never marked (or has been evicted) are not kept.
func (w *Window) Store(id string, replay []byte) {
	if _, seen := w.byID[id]; seen {
		w.byID[id] = replay
	}
}
