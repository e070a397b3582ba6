// Package wfqueue is a Go implementation of wCQ, the fast wait-free
// MPMC FIFO queue with bounded memory usage of Nikolaev & Ravindran
// (SPAA '22), together with the lock-free SCQ it builds on.
//
// # Quick start
//
//	q, err := wfqueue.New[string](1024, 8) // capacity 1024, up to 8 goroutines
//	h, err := q.Handle()                   // one handle per goroutine
//	h.Enqueue("hello")
//	v, ok := h.Dequeue()
//
// Every operation completes in a bounded number of steps regardless of
// what other goroutines do (wait-freedom), and the queue never
// allocates after construction (bounded memory) — the two properties
// the paper shows cannot be had together in prior fast queues.
//
// # Handles
//
// wCQ keeps a fixed census of per-thread helper records, so each
// concurrent goroutine needs its own Handle. A Handle must not be used
// from two goroutines at once; handles cannot be returned to the
// census. This mirrors the paper's NUM_THRDS assumption.
//
// # Variants
//
// Every variant is the same Queue and Handle over a different core;
// ShardedQueue, UnboundedQueue and the matching handle names are
// aliases, and one internal switch turns the options into the core.
// New builds the wait-free wCQ core. NewLockFree builds the SCQ
// variant: same ring, same performance envelope, no helping
// (lock-free progress only, no handle census), plus handle-free
// Enqueue/Dequeue. NewSharded composes several ring cores — per-handle
// enqueue affinity, work-stealing dequeue and native batch operations
// — for workloads that saturate a single ring's head/tail word;
// WithRingKind picks the core and WithUnboundedShards swaps the
// bounded rings for unbounded linked-ring shards. NewUnbounded links
// bounded rings into a queue with no capacity limit (the paper's
// Appendix A): Enqueue never reports full, Cap reports 0, memory grows
// and shrinks in ring-sized steps, and drained rings are recycled
// through a bounded pool. NewChan layers blocking Send/Recv/Close
// semantics over any of the cores. NewRing exposes the underlying
// index ring for allocator-style use (DPDK/SPDK-like index pools,
// Figure 2 of the paper).
//
// See ARCHITECTURE.md for the layer map and the progress/memory
// table of every variant.
package wfqueue

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/backoff"
	"repro/internal/metrics"
	"repro/internal/ringcore"
	"repro/internal/sharded"
	"repro/internal/unbounded"
	"repro/internal/wcq"
)

// Option customizes queue construction.
type Option func(*options)

type options struct {
	mode            atomicx.Mode
	enqPatience     int
	deqPatience     int
	helpDelay       int
	shards          int
	backend         Backend
	ringKind        RingKind
	ringCap         uint64
	unboundedShards bool
	metrics         *metrics.Sink
	wait            *backoff.Strategy
}

// core translates the accumulated options into the shared ring-core
// tuning struct every composition consumes.
func (o options) core() *ringcore.Options {
	return &ringcore.Options{
		Mode:        o.mode,
		EnqPatience: o.enqPatience,
		DeqPatience: o.deqPatience,
		HelpDelay:   o.helpDelay,
		Metrics:     o.metrics,
	}
}

// WithEmulatedFAA makes every fetch-and-add a CAS loop, modelling
// LL/SC architectures without native F&A (the paper's PowerPC port,
// §4). Mostly useful for benchmarking.
func WithEmulatedFAA() Option {
	return func(o *options) { o.mode = atomicx.EmulatedFAA }
}

// WithPatience sets MAX_PATIENCE: how many fast-path attempts an
// enqueue/dequeue makes before switching to the wait-free slow path.
// The paper uses 16 and 64. Lower values bound worst-case latency more
// tightly at some throughput cost.
func WithPatience(enqueue, dequeue int) Option {
	return func(o *options) { o.enqPatience, o.deqPatience = enqueue, dequeue }
}

// WithHelpDelay sets how many operations pass between scans for
// stalled peers (HELP_DELAY).
func WithHelpDelay(n int) Option {
	return func(o *options) { o.helpDelay = n }
}

// MetricsSink accumulates event counters (slow-path entries, threshold
// resets, batch degradations, steals, ring turnover, park/wake
// traffic, close drains) and a parked-duration histogram for one queue
// or one composition. Recording is allocation-free and sharded across
// cache-line-padded per-CPU stripes; a nil *MetricsSink is the
// disabled mode, costing the hot paths a single predictable branch.
type MetricsSink = metrics.Sink

// MetricsSnapshot is a point-in-time copy of a MetricsSink: one total
// per event plus the parked-duration histogram (with Quantile, Mean
// and Max). Snapshots are plain values — mergeable and comparable.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsSink returns an enabled sink to pass to WithMetrics. Share
// one sink across queues to aggregate them, or give each its own.
func NewMetricsSink() *MetricsSink { return metrics.New() }

// WithMetrics makes the queue record events and parked durations into
// m. The same sink is threaded through every layer of a composition
// (shards, linked rings, the Chan's park points), so the composition's
// Stats aggregate in one place. A nil m (or omitting the option)
// disables recording; the hot paths then pay one predictable branch
// per potential event, measured at well under a nanosecond.
func WithMetrics(m *MetricsSink) Option {
	return func(o *options) { o.metrics = m }
}

// WaitStrategy selects how blocking Chan operations wait: a bounded
// spin re-checking the condition, a short jittered yield phase, then
// a futex park (the three-phase machine in internal/park). The zero
// value and nil both mean the adaptive default, where the spin budget
// tracks each park point's observed spin-success rate. Construct one
// with AdaptiveWait or ParkWait.
type WaitStrategy = backoff.Strategy

// AdaptiveWait returns the default strategy: spin-then-park with the
// spin budget adapted per park point from the spin-hit EWMA, so an
// uncontended channel converges to pure spin and an oversubscribed
// one to immediate park.
func AdaptiveWait() *WaitStrategy { return backoff.Adaptive() }

// ParkWait returns the immediate-park strategy: no spin phase at all,
// the pre-adaptive behavior. The cheapest strategy when waits are
// long — under deep oversubscription it keeps the wait tail short
// where adaptive's yield phase stretches it — and the baseline the
// perf gate compares against.
func ParkWait() *WaitStrategy { return backoff.Park() }

// WithWaitStrategy selects how NewChan's blocking operations wait
// (nil or omitted = adaptive). Constructors without blocking
// operations ignore this option.
func WithWaitStrategy(s *WaitStrategy) Option {
	return func(o *options) { o.wait = s }
}

// WithShards sets the shard count for NewSharded (default 4). The
// total capacity is split evenly, so capacity/n must itself be a
// power of two >= 2. Other constructors ignore this option.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithUnboundedShards makes NewSharded compose n unbounded
// linked-ring shards (0 = the default 4) instead of bounded rings:
// each shard grows and shrinks independently (see NewUnbounded), so
// there is no global capacity — the capacity argument becomes each
// shard's ring size (a power of two >= 2, the growth granularity),
// Cap() reports 0, Enqueue never reports full, and Footprint() is
// live. Combine with WithRingKind to pick the shards' ring kind.
// Other constructors ignore this option.
func WithUnboundedShards(n int) Option {
	return func(o *options) {
		o.shards = n
		o.unboundedShards = true
	}
}

// validate enforces the documented constructor contract at the public
// boundary, in this package's own vocabulary (the internal layers
// carry their own checks, but callers of wfqueue should see wfqueue
// errors phrased against the public docs).
func validate(capacity uint64, maxThreads int) error {
	if maxThreads < 1 {
		return fmt.Errorf("wfqueue: maxThreads must be >= 1, got %d", maxThreads)
	}
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return fmt.Errorf("wfqueue: capacity must be a power of two >= 2, got %d", capacity)
	}
	return nil
}

func buildOpts(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// wcq translates the accumulated options for the index-ring
// constructors, through ringcore's single Options-to-wcq mapping (so
// the two structs cannot drift).
func (o options) wcq() *wcq.Options { return o.core().WCQ() }

// newCore is the one place options turn into a queue core: every
// constructor (New, NewLockFree, NewSharded, NewUnbounded, NewChan)
// names its Backend and lets this switch build it. capacity is the
// ring capacity for the bounded backends, the total capacity for
// BackendSharded, and each linked ring's size for the unbounded ones.
func newCore[T any](b Backend, capacity uint64, maxThreads int, o options) (ringcore.Core[T], error) {
	switch b {
	case BackendWCQ, BackendSCQ:
		kind, census := ringcore.KindWCQ, maxThreads
		if b == BackendSCQ {
			kind, census = ringcore.KindSCQ, 1 // no census: maxThreads is ignored
		}
		if err := validate(capacity, census); err != nil {
			return nil, err
		}
		return ringcore.New[T](kind, capacity, maxThreads, o.core())
	case BackendSharded, BackendShardedUnbounded:
		unboundedShards := b == BackendShardedUnbounded
		switch {
		case unboundedShards:
			// capacity is each shard's ring size: a power of two.
			if err := validate(capacity, maxThreads); err != nil {
				return nil, err
			}
		case o.unboundedShards:
			// WithUnboundedShards would silently turn this bounded
			// backend unbounded (Cap 0, no Send backpressure); the
			// unbounded-sharded Chan is its own backend.
			return nil, fmt.Errorf("wfqueue: WithUnboundedShards conflicts with BackendSharded; use BackendShardedUnbounded")
		case maxThreads < 1:
			// The total capacity need not be a power of two — only the
			// per-shard quotient must be, which sharded.New validates.
			return nil, fmt.Errorf("wfqueue: maxThreads must be >= 1, got %d", maxThreads)
		}
		kind, err := o.ringKind.kind()
		if err != nil {
			return nil, err
		}
		q, err := sharded.New[T](capacity, maxThreads, &sharded.Options{
			Shards:    o.shards,
			Kind:      kind,
			Unbounded: unboundedShards,
			Core:      o.core(),
		})
		if err != nil {
			return nil, err
		}
		return q, nil
	case BackendUnbounded:
		// capacity is the linked rings' size. It is validated, never
		// defaulted: only NewUnbounded's WithRingCapacity has a default.
		if err := validate(capacity, maxThreads); err != nil {
			return nil, err
		}
		kind, err := o.ringKind.kind()
		if err != nil {
			return nil, err
		}
		q, err := unbounded.New[T](kind, capacity, maxThreads, o.core())
		if err != nil {
			return nil, err
		}
		return q, nil
	}
	return nil, fmt.Errorf("wfqueue: unknown chan backend %d", b)
}

// newQueue wraps a freshly built core in the public Queue.
func newQueue[T any](core ringcore.Core[T], err error) (*Queue[T], error) {
	if err != nil {
		return nil, err
	}
	return &Queue[T]{core: core}, nil
}

// Queue is an MPMC FIFO of values of type T over one queue core: the
// bounded wait-free wCQ (New), the lock-free SCQ (NewLockFree), the
// sharded composition (NewSharded) or the unbounded linked rings
// (NewUnbounded). The variants differ in progress guarantee and
// bound, not in surface; ShardedQueue and UnboundedQueue are aliases
// of this type.
type Queue[T any] struct {
	core ringcore.Core[T]
}

// Handle is a goroutine's capability to use a Queue. Not safe for
// concurrent use by multiple goroutines. On the wCQ core every
// operation completes in a bounded number of steps regardless of
// other goroutines; the other cores keep their own guarantee (see
// each constructor). ShardedHandle, UnboundedHandle and LockFreeHandle
// are aliases of this type.
type Handle[T any] struct {
	h ringcore.Handle[T]
}

// ShardedQueue is the Queue NewSharded returns.
type ShardedQueue[T any] = Queue[T]

// ShardedHandle is a goroutine's capability to use a ShardedQueue.
type ShardedHandle[T any] = Handle[T]

// LockFreeHandle is a goroutine's capability to use a LockFreeQueue,
// carrying the per-handle scratch the native batch reservation uses.
type LockFreeHandle[T any] = Handle[T]

// New returns an empty wait-free queue holding up to capacity values
// (a power of two >= 2), operated by at most maxThreads concurrent
// handles.
func New[T any](capacity uint64, maxThreads int, opts ...Option) (*Queue[T], error) {
	return newQueue(newCore[T](BackendWCQ, capacity, maxThreads, buildOpts(opts)))
}

// Handle registers the calling goroutine and returns its handle. On
// census cores (wCQ rings) it fails once maxThreads handles exist;
// SCQ-only queues accept any number of handles.
func (q *Queue[T]) Handle() (*Handle[T], error) {
	h, err := q.core.Acquire()
	if err != nil {
		return nil, err
	}
	return &Handle[T]{h: h}, nil
}

// Cap returns the queue capacity (summed over shards), or 0 when the
// queue is unbounded (NewUnbounded, or NewSharded with
// WithUnboundedShards).
func (q *Queue[T]) Cap() uint64 { return q.core.Cap() }

// Footprint returns the bytes the queue retains right now. Bounded
// queues report their construction-time allocation and never
// allocate afterwards; unbounded ones report the live rings plus the
// bounded recycling pool, which grows in ring-sized steps while
// values are buffered and shrinks back after a drain.
func (q *Queue[T]) Footprint() uint64 { return q.core.Footprint() }

// Stats snapshots the metrics sink shared by every layer of the
// queue. The zero snapshot is returned when the queue was built
// without WithMetrics.
func (q *Queue[T]) Stats() MetricsSnapshot { return q.core.Stats() }

// Shards returns the shard count: WithShards for NewSharded, 1 for
// every other queue.
func (q *Queue[T]) Shards() int {
	if s, ok := q.core.(interface{ Shards() int }); ok {
		return s.Shards()
	}
	return 1
}

// RingCap returns the capacity of each bounded ring the queue is
// built from: Cap() for a single ring, Cap()/Shards() for bounded
// shards, and the linked rings' size for unbounded queues.
func (q *Queue[T]) RingCap() uint64 {
	if r, ok := q.core.(interface{ RingCap() uint64 }); ok {
		return r.RingCap()
	}
	return q.core.Cap()
}

// Rings returns the number of live linked rings of an unbounded queue
// (summed over shards; at least one per shard), or 0 for a bounded
// queue. Racy by nature; for introspection and capacity planning.
func (q *Queue[T]) Rings() int { return rings(q.core) }

// rings reads the live linked-ring population of an unbounded core,
// 0 for cores that do not link rings.
func rings[T any](c ringcore.Core[T]) int {
	if r, ok := c.(interface{ Rings() int }); ok {
		return r.Rings()
	}
	return 0
}

// Enqueue appends v; it returns false when the queue is full (for a
// sharded queue: the handle's home shard). Unbounded queues never
// report full.
//
//wfq:noalloc
func (h *Handle[T]) Enqueue(v T) bool { return h.h.Enqueue(v) }

// Dequeue removes and returns the oldest value; ok is false when the
// queue is empty (for a sharded queue: after every shard looked empty
// in one scan).
//
//wfq:noalloc
func (h *Handle[T]) Dequeue() (v T, ok bool) { return h.h.Dequeue() }

// EnqueueBatch appends a prefix of vs in order and returns its length
// (a short count means the queue filled up mid-batch; an unbounded
// queue always takes the whole batch). The fast path reserves the
// whole batch with one fetch-and-add per underlying ring instead of
// one per element, and allocates nothing in the steady state.
//
//wfq:noalloc
func (h *Handle[T]) EnqueueBatch(vs []T) int { return h.h.EnqueueBatch(vs) }

// DequeueBatch fills a prefix of out with the oldest values and
// returns its length; 0 means the queue appeared empty. One
// reservation fetch-and-add per ring on the fast path.
//
//wfq:noalloc
func (h *Handle[T]) DequeueBatch(out []T) int { return h.h.DequeueBatch(out) }

// Ring is a bounded wait-free MPMC queue of indices in [0, Cap()) —
// the raw wCQ ring, useful as a free-list/allocation pool (the aq/fq
// pattern of the paper's Figure 2).
type Ring struct {
	r *wcq.Ring
}

// RingHandle is a goroutine's capability to use a Ring. Not safe for
// concurrent use by multiple goroutines; operations are wait-free.
type RingHandle struct {
	h *wcq.Handle
}

// NewRing returns an empty wait-free index ring. If full is true it is
// pre-filled with 0..capacity-1 (a free-index pool).
func NewRing(capacity uint64, maxThreads int, full bool, opts ...Option) (*Ring, error) {
	if err := validate(capacity, maxThreads); err != nil {
		return nil, err
	}
	o := buildOpts(opts)
	var r *wcq.Ring
	var err error
	if full {
		r, err = wcq.NewFullRing(capacity, maxThreads, o.wcq())
	} else {
		r, err = wcq.NewRing(capacity, maxThreads, o.wcq())
	}
	if err != nil {
		return nil, err
	}
	return &Ring{r: r}, nil
}

// Handle registers the calling goroutine.
func (r *Ring) Handle() (*RingHandle, error) {
	h, err := r.r.Register()
	if err != nil {
		return nil, err
	}
	return &RingHandle{h: h}, nil
}

// Cap returns the ring capacity.
func (r *Ring) Cap() uint64 { return r.r.Cap() }

// Stats snapshots the ring's metrics sink. The zero snapshot is
// returned when the ring was built without WithMetrics.
func (r *Ring) Stats() MetricsSnapshot { return r.r.Metrics().Snapshot() }

// Enqueue inserts an index in [0, Cap()). The ring never reports full:
// the caller must keep at most Cap() indices live (as a free-list
// naturally does).
//
//wfq:noalloc
func (h *RingHandle) Enqueue(index uint64) { h.h.Enqueue(index) }

// Dequeue removes the oldest index; ok is false when empty.
//
//wfq:noalloc
func (h *RingHandle) Dequeue() (index uint64, ok bool) { return h.h.Dequeue() }

// LockFreeQueue is the SCQ variant: identical structure, lock-free
// (not wait-free) progress, no handle census — any goroutine may call
// Enqueue and Dequeue on the queue directly, and Handle never fails.
// Handles are still needed for the batch operations, whose scratch
// buffer is what makes them allocation-free.
type LockFreeQueue[T any] struct {
	*Queue[T]
	// shared serves the handle-free Enqueue/Dequeue. Sharing one
	// handle between goroutines is safe here only: SCQ needs no
	// registration, and the payload layer's scalar path keeps no
	// per-handle state (the batch scratch is never touched by it).
	shared *Handle[T]
}

// NewLockFree returns an empty lock-free (SCQ) queue.
func NewLockFree[T any](capacity uint64, opts ...Option) (*LockFreeQueue[T], error) {
	q, err := newQueue(newCore[T](BackendSCQ, capacity, 1, buildOpts(opts)))
	if err != nil {
		return nil, err
	}
	shared, err := q.Handle()
	if err != nil {
		return nil, err
	}
	return &LockFreeQueue[T]{Queue: q, shared: shared}, nil
}

// Enqueue appends v; false when full. Safe for any goroutine.
//
//wfq:noalloc
func (q *LockFreeQueue[T]) Enqueue(v T) bool { return q.shared.Enqueue(v) }

// Dequeue removes the oldest value; ok is false when empty. Safe for
// any goroutine.
//
//wfq:noalloc
func (q *LockFreeQueue[T]) Dequeue() (T, bool) { return q.shared.Dequeue() }

// NewSharded returns an empty sharded queue of total capacity
// `capacity` split across WithShards(n) sub-queues (default 4);
// capacity/n must itself be a power of two >= 2, so non-power-of-two
// shard counts work as long as the per-shard quotient is (e.g.
// capacity 12 over 3 shards of 4). Every handle registers with every
// shard, so maxThreads bounds handles globally. WithRingKind selects
// the shards' ring core (wait-free wCQ by default, lock-free SCQ);
// WithUnboundedShards swaps the bounded rings for unbounded
// linked-ring shards, reinterpreting capacity as each shard's ring
// size (a power of two >= 2).
//
// The sharded queue spreads the single head/tail hot word across
// shards: each handle enqueues to a fixed home shard (assigned
// round-robin at Handle time) and dequeues home-first, then
// round-robin with work stealing, so no shard starves. Any one
// handle's values come back in strict FIFO order; values from
// different handles may interleave in either order. With bounded
// shards Enqueue reports full when the handle's home shard is full;
// with unbounded shards it never does.
func NewSharded[T any](capacity uint64, maxThreads int, opts ...Option) (*ShardedQueue[T], error) {
	o := buildOpts(opts)
	b := BackendSharded
	if o.unboundedShards {
		b = BackendShardedUnbounded
	}
	return newQueue(newCore[T](b, capacity, maxThreads, o))
}
