package wcq

import "testing"

func TestSealStopsEnqueues(t *testing.T) {
	q, _ := NewQueue[uint64](8, 2, nil)
	h, _ := q.Register()
	if !h.EnqueueSealed(1) {
		t.Fatal("enqueue before seal failed")
	}
	q.Seal()
	if h.EnqueueSealed(2) {
		t.Fatal("enqueue after seal succeeded")
	}
	// Remaining elements still drain.
	if v, ok := h.Dequeue(); !ok || v != 1 {
		t.Fatalf("got (%d,%v), want 1", v, ok)
	}
	if !q.Drained() {
		t.Fatal("sealed empty queue not drained")
	}
}

func TestDrainedRequiresSeal(t *testing.T) {
	q, _ := NewQueue[uint64](8, 1, nil)
	if q.Drained() {
		t.Fatal("unsealed queue reported drained")
	}
}
