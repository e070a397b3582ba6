package wcq

import (
	"fmt"

	"repro/internal/payload"
)

// Queue is a bounded wait-free MPMC queue of arbitrary values: the
// shared Figure 2 payload layer (internal/payload) over two wait-free
// Rings. All memory is allocated at construction.
type Queue[T any] struct {
	*payload.Queue[T]
	aq, fq *Ring
}

// QueueHandle is a registered thread's capability to operate on a
// Queue. Like Handle it must not be shared between goroutines.
type QueueHandle[T any] = payload.Handle[T, *Handle]

// NewQueue returns an empty Queue holding up to capacity values,
// usable by at most maxThreads registered handles. capacity must be a
// power of two >= 2.
func NewQueue[T any](capacity uint64, maxThreads int, opts *Options) (*Queue[T], error) {
	aq, err := NewRing(capacity, maxThreads, opts)
	if err != nil {
		return nil, err
	}
	fq, err := NewFullRing(capacity, maxThreads, opts)
	if err != nil {
		return nil, err
	}
	return &Queue[T]{Queue: payload.New[T](aq, fq), aq: aq, fq: fq}, nil
}

// Register allocates per-thread records in both underlying rings; it
// fails once the census is exhausted.
func (q *Queue[T]) Register() (*QueueHandle[T], error) {
	aqh, err := q.aq.Register()
	if err != nil {
		return nil, fmt.Errorf("wcq: registering with aq: %w", err)
	}
	fqh, err := q.fq.Register()
	if err != nil {
		return nil, fmt.Errorf("wcq: registering with fq: %w", err)
	}
	return payload.NewHandle(q.Queue, aqh, fqh), nil
}
