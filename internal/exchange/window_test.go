package exchange

import (
	"fmt"
	"testing"
)

func TestWindowEvictsOldestAtCapacity(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 3; i++ {
		if _, seen := w.Mark(fmt.Sprint("id-", i)); seen {
			t.Fatalf("id-%d seen on first Mark", i)
		}
	}
	// A re-Mark of a held ID neither moves it nor evicts anything.
	if _, seen := w.Mark("id-0"); !seen || !w.Seen("id-1") || !w.Seen("id-2") {
		t.Fatalf("re-Mark: seen=%v, or it evicted a held ID", seen)
	}
	// Two new IDs push out the two oldest, in insertion order.
	w.Mark("id-3")
	if w.Seen("id-0") || !w.Seen("id-1") || !w.Seen("id-2") || !w.Seen("id-3") {
		t.Fatal("first eviction did not take the oldest ID")
	}
	w.Mark("id-4")
	if w.Seen("id-1") || !w.Seen("id-2") || !w.Seen("id-3") || !w.Seen("id-4") {
		t.Fatal("second eviction did not take the oldest ID")
	}
	// An evicted ID is new again.
	if _, seen := w.Mark("id-0"); seen {
		t.Fatal("evicted ID still seen")
	}
	if w.Seen("id-2") || !w.Seen("id-3") || !w.Seen("id-4") {
		t.Fatal("ring did not wrap onto the oldest slot")
	}
}

func TestWindowReplayBytes(t *testing.T) {
	w := NewWindow(2)
	// Bytes for an ID that was never marked are not kept.
	w.Store("unseen", []byte("reply"))
	if w.Seen("unseen") {
		t.Fatal("Store admitted an unseen ID")
	}
	// In flight: seen, nothing to replay yet.
	if replay, seen := w.Mark("a"); seen || replay != nil {
		t.Fatalf("first Mark = %q, %v", replay, seen)
	}
	if replay, seen := w.Mark("a"); !seen || replay != nil {
		t.Fatalf("in-flight Mark = %q, %v", replay, seen)
	}
	// Answered: the stored bytes come back on every later Mark.
	w.Store("a", []byte("reply-a"))
	for i := 0; i < 2; i++ {
		if replay, seen := w.Mark("a"); !seen || string(replay) != "reply-a" {
			t.Fatalf("answered Mark = %q, %v", replay, seen)
		}
	}
	// Eviction drops the bytes with the ID, and a late Store cannot
	// resurrect it.
	w.Mark("b")
	w.Mark("c")
	w.Store("a", []byte("late"))
	if w.Seen("a") {
		t.Fatal("evicted ID resurrected by Store")
	}
}

func TestWindowMinimumCapacity(t *testing.T) {
	w := NewWindow(0)
	w.Mark("a")
	w.Mark("b")
	if w.Seen("a") || !w.Seen("b") {
		t.Fatal("a zero capacity did not behave as capacity 1")
	}
}
