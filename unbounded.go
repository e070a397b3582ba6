package wfqueue

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/ringcore"
)

// DefaultRingCapacity is the per-ring capacity NewUnbounded uses when
// WithRingCapacity is not given: large enough that outer-list
// turnover is rare, small enough that a drained burst returns its
// memory promptly.
const DefaultRingCapacity = 1024

// RingKind selects the bounded ring an unbounded queue links together.
type RingKind int

const (
	// RingWCQ links wait-free wCQ rings (the default): every ring
	// operation completes in a bounded number of steps, and handles
	// draw on a per-ring thread census of maxThreads.
	RingWCQ RingKind = iota
	// RingSCQ links lock-free SCQ rings (the paper's LSCQ): no thread
	// census, so any number of Handles may be created, at the cost of
	// lock-free (not wait-free) ring progress.
	RingSCQ
)

// String names the ring kind as the queue registry does.
func (k RingKind) String() string {
	switch k {
	case RingWCQ:
		return "UWCQ"
	case RingSCQ:
		return "LSCQ"
	}
	return "?"
}

// kind maps the public ring-kind constant to the shared ringcore
// contract every internal composition consumes. It is the one place
// an unknown RingKind is rejected, so no constructor can silently
// build a default ring for it.
func (k RingKind) kind() (ringcore.Kind, error) {
	switch k {
	case RingWCQ:
		return ringcore.KindWCQ, nil
	case RingSCQ:
		return ringcore.KindSCQ, nil
	}
	return 0, fmt.Errorf("wfqueue: unknown ring kind %d", int(k))
}

// WithRingKind selects the ring core the linked-ring and sharded
// constructors build from (default RingWCQ): NewUnbounded links rings
// of this kind, and NewSharded builds its shards from it (bounded or,
// with WithUnboundedShards, unbounded). Other constructors ignore
// this option.
func WithRingKind(k RingKind) Option {
	return func(o *options) { o.ringKind = k }
}

// WithRingCapacity sets the capacity of each ring an unbounded queue
// links (a power of two >= 2; default DefaultRingCapacity). It bounds
// the retained-memory granularity: after a burst drains, the queue
// keeps one live ring plus a small recycling pool of this size.
// Other constructors ignore this option.
func WithRingCapacity(n uint64) Option {
	return func(o *options) { o.ringCap = n }
}

// UnboundedQueue is the Queue NewUnbounded returns: an MPMC FIFO
// with no capacity bound, built by linking bounded rings (the paper's
// Appendix A construction). Enqueue never reports full — a full ring
// is sealed and a fresh ring is appended. Memory therefore grows with
// the number of buffered values (in ring-sized steps, see Footprint)
// and shrinks back as bursts drain; a bounded free-list recycles
// drained rings so steady-state churn does not allocate.
//
// Progress: within a ring, operations keep the ring kind's guarantee
// (wait-free for RingWCQ, lock-free for RingSCQ), and the outer list
// itself is lock-free; ring turnover, however, briefly serializes on
// the recycling pool's mutex, so the composite as a whole is not
// lock-free at ring boundaries. Turnover is rare (once per RingCap
// values), which is why throughput tracks the rings, as the paper
// observes.
type UnboundedQueue[T any] = Queue[T]

// UnboundedHandle is a goroutine's capability to use an
// UnboundedQueue. Its Enqueue always returns true and EnqueueBatch
// always takes the whole batch: the queue grows instead of reporting
// full.
type UnboundedHandle[T any] = Handle[T]

// NewUnbounded returns an empty unbounded queue operated by at most
// maxThreads concurrent handles (the bound applies to RingWCQ, whose
// rings carry a thread census; RingSCQ accepts any number of
// handles). Configure with WithRingKind and WithRingCapacity.
func NewUnbounded[T any](maxThreads int, opts ...Option) (*UnboundedQueue[T], error) {
	o := buildOpts(opts)
	ringCap := o.ringCap
	if ringCap == 0 {
		ringCap = DefaultRingCapacity
	}
	if maxThreads >= 1 && (ringCap < 2 || !ring.IsPow2(ringCap)) {
		// Phrased against WithRingCapacity, the option that set it.
		return nil, fmt.Errorf("wfqueue: ring capacity must be a power of two >= 2, got %d", ringCap)
	}
	return newQueue(newCore[T](BackendUnbounded, ringCap, maxThreads, o))
}
