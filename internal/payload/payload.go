// Package payload is the paper's Figure 2 indirection, written once
// for both index-ring cores: fq circulates free indices, aq circulates
// allocated ones, and a plain data array carries the values. Moving a
// value is therefore two ring operations (take a free index, publish
// it) plus one array access, whichever ring algorithm — the wait-free
// wCQ or the lock-free SCQ — moves the indices.
//
// Queue holds what every goroutine shares (the data array, the seal
// state the unbounded construction drives, introspection); Handle
// holds one goroutine's ring handles and its batch scratch. internal/wcq
// and internal/scq each wrap a Queue with their own construction and
// handle registration.
package payload

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/pad"
)

// Ring is the shared face of an index ring the Queue introspects:
// *wcq.Ring and *scq.Ring both provide it.
type Ring interface {
	// Cap returns the number of indices the ring can hold.
	Cap() uint64
	// Footprint returns the ring's statically allocated byte size.
	Footprint() uint64
	// Drained reports that every enqueue ticket has been examined.
	Drained() bool
	// Metrics returns the sink the ring records into (nil = disabled).
	Metrics() *metrics.Sink
}

// IndexRing is one goroutine's operating surface on an index ring:
// *wcq.Handle (a registered thread record) and *scq.Ring (census-free,
// so the ring itself) both provide it.
type IndexRing interface {
	// Enqueue inserts an index; the ring never reports full.
	Enqueue(index uint64)
	// Dequeue removes the oldest index; ok is false when empty.
	Dequeue() (index uint64, ok bool)
	// EnqueueBatch inserts indices in order.
	EnqueueBatch(indices []uint64)
	// DequeueBatch fills a prefix of out and returns its length.
	DequeueBatch(out []uint64) int
}

// Queue is a bounded MPMC queue of arbitrary values over two index
// rings. All memory is allocated at construction.
type Queue[T any] struct {
	aq   Ring
	fq   Ring
	data []T

	// Sealing state for the unbounded (Appendix A) construction. An
	// enqueue registers in inflight BEFORE checking sealed; Drained
	// therefore implies no enqueue can ever land again.
	_        pad.Line
	sealed   atomic.Bool
	inflight atomic.Int64
	_        pad.Line
}

// New returns a Queue over aq (empty) and fq (pre-filled with every
// index in [0, fq.Cap())); both rings must have the same capacity.
func New[T any](aq, fq Ring) *Queue[T] {
	return &Queue[T]{aq: aq, fq: fq, data: make([]T, aq.Cap())}
}

// Seal closes the queue for enqueues (the appendix's finalize_wCQ):
// EnqueueSealed fails once the seal is visible, while dequeues drain
// the remaining elements normally.
//
//wfq:noalloc
func (q *Queue[T]) Seal() { q.sealed.Store(true) }

// Reset reopens a sealed queue for enqueues. It is only sound on a
// queue that is Drained and reachable by no other goroutine (the
// unbounded construction's ring recycling, where the retire handshake
// guarantees exclusivity); the rings' monotonic cycle counters carry
// on, so no other state needs rewinding. Handles stay valid.
//
//wfq:noalloc
func (q *Queue[T]) Reset() { q.sealed.Store(false) }

// Drained reports that no value can ever be produced by this queue
// again: it is sealed, no enqueue is in flight, and every enqueue
// ticket has been examined. The in-flight counter is incremented
// BEFORE the seal check in EnqueueSealed, so (with sequentially
// consistent atomics) observing sealed && inflight==0 proves any
// future EnqueueSealed will observe the seal and fail.
//
//wfq:noalloc
func (q *Queue[T]) Drained() bool {
	return q.sealed.Load() && q.inflight.Load() == 0 && q.aq.Drained()
}

// Empty reports that the queue held no value at some instant during
// the call: aq's head counter had caught up with its tail counter, so
// every enqueued value had been claimed by a dequeue. The probe is
// one-sided (a concurrent enqueue may land right after), which is the
// guarantee the blocking facade's direct handoff needs — handing a
// value past the ring is FIFO-safe iff nothing unclaimed precedes it.
//
//wfq:noalloc
func (q *Queue[T]) Empty() bool { return q.aq.Drained() }

// Cap returns the queue capacity.
//
//wfq:noalloc
func (q *Queue[T]) Cap() uint64 { return uint64(len(q.data)) }

// Metrics returns the sink the rings record into (nil when metrics
// are disabled). aq and fq share one sink, so one accessor covers the
// queue.
//
//wfq:noalloc
func (q *Queue[T]) Metrics() *metrics.Sink { return q.aq.Metrics() }

// Footprint returns the statically allocated byte size of the queue:
// both rings plus the data array at the element type's size (the
// values' own heap, if T holds pointers, belongs to the caller).
//
//wfq:noalloc
func (q *Queue[T]) Footprint() uint64 {
	var zero T
	return q.aq.Footprint() + q.fq.Footprint() + uint64(len(q.data))*uint64(unsafe.Sizeof(zero))
}

// Handle is one goroutine's capability to operate on a Queue through
// its own views of aq and fq. It must not be shared between goroutines:
// it carries the index scratch the batch operations use.
type Handle[T any, R IndexRing] struct {
	q  *Queue[T]
	aq R
	fq R
	// idxBuf carries index runs between fq, the data array and aq in
	// the batch operations. It grows to the largest batch this handle
	// has seen (capped at Cap) and is then reused forever, so the
	// steady-state batch hot path allocates nothing.
	idxBuf []uint64
}

// NewHandle returns a handle on q operating through aq and fq, which
// must be views of the rings q was built over.
func NewHandle[T any, R IndexRing](q *Queue[T], aq, fq R) *Handle[T, R] {
	return &Handle[T, R]{q: q, aq: aq, fq: fq}
}

// scratch returns the handle's index buffer, grown to hold n entries
// but never past the queue capacity — at most Cap() indices can move
// per call, so a batch far larger than the queue must not pin a
// buffer sized to the batch (short counts are within the batch
// contract; the caller resumes with the remainder).
//
//wfq:allocok grows to queue capacity once per handle, then reused
func (h *Handle[T, R]) scratch(n int) []uint64 {
	if c := len(h.q.data); n > c {
		n = c
	}
	if cap(h.idxBuf) < n {
		h.idxBuf = make([]uint64, n)
	}
	return h.idxBuf[:n]
}

// Enqueue appends v; it returns false when the queue is full. It
// touches no per-handle state.
//
//wfq:noalloc
func (h *Handle[T, R]) Enqueue(v T) bool {
	idx, ok := h.fq.Dequeue()
	if !ok {
		return false
	}
	h.q.data[idx] = v
	h.aq.Enqueue(idx)
	return true
}

// Dequeue removes and returns the oldest value; ok is false when the
// queue is empty. It touches no per-handle state.
//
//wfq:noalloc
func (h *Handle[T, R]) Dequeue() (v T, ok bool) {
	idx, ok := h.aq.Dequeue()
	if !ok {
		return v, false
	}
	var zero T
	v, h.q.data[idx] = h.q.data[idx], zero // release references before recycling the slot
	h.fq.Enqueue(idx)
	return v, true
}

// EnqueueBatch appends a prefix of vs in order and returns its length;
// a short count means the queue filled up mid-batch. Index traffic
// with fq/aq moves through the rings' native batches, so the fast path
// pays one reservation F&A per ring per batch instead of one per
// element.
//
//wfq:noalloc
func (h *Handle[T, R]) EnqueueBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	buf := h.scratch(len(vs))
	n := h.fq.DequeueBatch(buf)
	data := h.q.data
	for j, idx := range buf[:n] {
		data[idx] = vs[j]
	}
	h.aq.EnqueueBatch(buf[:n])
	return n
}

// DequeueBatch fills a prefix of out with the oldest values and
// returns its length; 0 means the queue appeared empty.
//
//wfq:noalloc
func (h *Handle[T, R]) DequeueBatch(out []T) int {
	if len(out) == 0 {
		return 0
	}
	buf := h.scratch(len(out))
	n := h.aq.DequeueBatch(buf)
	data := h.q.data
	var zero T
	for j, idx := range buf[:n] {
		out[j], data[idx] = data[idx], zero // release references before recycling the slot
	}
	h.fq.EnqueueBatch(buf[:n])
	return n
}

// EnqueueSealed appends v unless the queue is full or sealed.
//
//wfq:noalloc
func (h *Handle[T, R]) EnqueueSealed(v T) bool {
	q := h.q
	q.inflight.Add(1)
	defer q.inflight.Add(-1)
	if q.sealed.Load() {
		return false
	}
	return h.Enqueue(v)
}

// EnqueueSealedBatch is EnqueueBatch unless the queue is sealed, in
// which case it appends nothing (the unbounded construction's batch
// enqueue rolls over to a fresh ring on a short count).
//
//wfq:noalloc
func (h *Handle[T, R]) EnqueueSealedBatch(vs []T) int {
	q := h.q
	q.inflight.Add(1)
	defer q.inflight.Add(-1)
	if q.sealed.Load() {
		return 0
	}
	return h.EnqueueBatch(vs)
}
