// Package ringcore defines the one contract both of the paper's
// index-ring cores — the wait-free wCQ and the lock-free SCQ — are
// consumed through, so every composition in this repository (sharded,
// unbounded linked rings, the queue registry, the blocking facade) is
// written once against Core/Ring/Handle instead of once per core.
//
// Before this package, each consumer carried its own dual plumbing:
// parallel `[]*wcq.Queue` / `[]*scq.Queue` arrays with a backend
// branch in every operation (sharded), hand-written ctl/view adapter
// pairs (unbounded), and a bespoke adapter struct per registry
// variant. The contract collapses all of that: a new core kind is one
// adapter here plus a Kind constant, and every composition picks it
// up for free.
//
// The split between the three interfaces follows who needs what:
//
//   - Handle is the per-goroutine operating surface: scalar and
//     native-batch enqueue/dequeue, plus the sealed variants the
//     linked-ring construction uses. A core that is never sealed
//     (a sharded or unbounded composite) treats EnqueueSealed exactly
//     as Enqueue.
//   - Core is what any composition needs to hold a sub-queue: handle
//     acquisition, capacity, live footprint, the ring kind and a
//     metrics snapshot.
//   - Ring adds the seal/drain/reset recycling lifecycle only the
//     unbounded construction drives.
package ringcore

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/scq"
	"repro/internal/wcq"
)

// Kind selects one of the paper's index-ring cores.
type Kind int

const (
	// KindWCQ is the wait-free wCQ core (the paper's contribution):
	// bounded steps per operation via helping, at the cost of a fixed
	// per-ring thread census consumed by Acquire.
	KindWCQ Kind = iota
	// KindSCQ is the lock-free SCQ substrate: no thread census, so any
	// number of handles may be acquired, with lock-free (not
	// wait-free) progress.
	KindSCQ
)

// String names the kind as the queue registry does.
func (k Kind) String() string {
	switch k {
	case KindWCQ:
		return "wCQ"
	case KindSCQ:
		return "SCQ"
	}
	return "?"
}

// Census reports whether handles of this kind draw on a bounded
// per-ring thread census (wCQ's NUM_THRDS records). Kinds without a
// census accept any number of Acquire calls, which is what lets the
// unbounded construction leave its handle count unbounded for SCQ
// rings.
func (k Kind) Census() bool { return k == KindWCQ }

// Kinds lists every registered ring kind, in registry-name order.
func Kinds() []Kind { return []Kind{KindWCQ, KindSCQ} }

// KindByName resolves a registry-style name ("wCQ", "SCQ") to its
// Kind, for flag parsing.
func KindByName(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("ringcore: unknown ring kind %q (have wCQ, SCQ)", name)
}

// Options tunes a core. The zero value selects native F&A and the
// paper's wCQ defaults; KindSCQ only consults Mode and Metrics.
type Options struct {
	// Mode selects native or CAS-emulated F&A (the paper's PowerPC
	// configuration).
	Mode atomicx.Mode
	// EnqPatience / DeqPatience bound the wCQ fast path before the
	// helped slow path takes over (MAX_PATIENCE; 0 = paper defaults).
	EnqPatience int
	DeqPatience int
	// HelpDelay is the number of wCQ operations between help scans
	// (HELP_DELAY; 0 = paper default).
	HelpDelay int
	// Metrics, when non-nil, receives the core's slow-path events
	// (internal/metrics event taxonomy). Compositions thread the SAME
	// sink into every sub-core they build from these options, so a
	// whole stack aggregates into one Sink. nil disables recording at
	// the cost of one predictable branch per event site.
	Metrics *metrics.Sink
}

// WCQ translates the shared options into the wCQ package's own
// tuning struct — the ONE mapping between the two, used both by New
// and by callers that talk to internal/wcq directly (a future field
// added here cannot silently miss a constructor). A nil receiver
// selects all defaults.
func (o *Options) WCQ() *wcq.Options {
	if o == nil {
		return nil
	}
	return &wcq.Options{
		Mode:        o.Mode,
		EnqPatience: o.EnqPatience,
		DeqPatience: o.DeqPatience,
		HelpDelay:   o.HelpDelay,
		Metrics:     o.Metrics,
	}
}

// Sink extracts the metrics sink (nil when disabled or when o is nil).
// Compositions use it to pick up the shared sink for their own events
// (steals, ring recycling) without re-plumbing a second option.
func (o *Options) Sink() *metrics.Sink {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// mode extracts the F&A mode (KindSCQ's only tuning field).
func (o *Options) mode() atomicx.Mode {
	if o == nil {
		return atomicx.NativeFAA
	}
	return o.Mode
}

// Handle is a goroutine's capability to operate on a core. Like the
// underlying queues' handles it must not be used by two goroutines
// concurrently. Batch operations move through the cores' native
// multi-slot reservation (one F&A per batch) with per-handle
// zero-allocation scratch on both kinds.
type Handle[T any] interface {
	// Enqueue appends v; false means the core is full.
	Enqueue(v T) bool
	// Dequeue removes the oldest value; ok is false when empty.
	Dequeue() (T, bool)
	// EnqueueBatch appends a prefix of vs in order and returns its
	// length; a short count means the core filled up mid-batch.
	EnqueueBatch(vs []T) int
	// DequeueBatch fills a prefix of out with the oldest values and
	// returns its length; 0 means the core appeared empty.
	DequeueBatch(out []T) int
	// EnqueueSealed is Enqueue unless the core has been sealed, in
	// which case it appends nothing and returns false. On cores that
	// are never sealed it is identical to Enqueue.
	EnqueueSealed(v T) bool
	// EnqueueSealedBatch is EnqueueBatch unless the core has been
	// sealed, in which case it appends nothing and returns 0.
	EnqueueSealedBatch(vs []T) int
}

// Core is a queue core behind the one contract every composition
// consumes: handle acquisition plus the introspection the registry,
// the harness and the public facade need. Both bounded ring kinds
// implement it (via Ring), and so do the composites, so they can be
// composed again: *sharded.Queue and *unbounded.Queue are Cores
// themselves.
type Core[T any] interface {
	// Acquire returns a per-goroutine Handle. For kinds with a thread
	// census (KindWCQ) it fails once the census is exhausted;
	// census-free kinds never fail.
	Acquire() (Handle[T], error)
	// Cap returns the capacity, or 0 when the core is unbounded.
	Cap() uint64
	// Footprint returns the bytes the core retains right now. Bounded
	// cores report their fixed construction-time allocation; unbounded
	// composites report a live figure that grows and shrinks.
	Footprint() uint64
	// Empty reports that the core held no unclaimed value at some
	// instant during the call. The probe is one-sided: true proves a
	// linearization point at which every enqueued value had been
	// claimed by a dequeuer (a concurrent enqueue may land right
	// after); false proves nothing. The blocking facade's direct
	// handoff relies on exactly this — bypassing the ring is FIFO-safe
	// iff no unclaimed value precedes the handed-off one.
	Empty() bool
	// Kind identifies the ring kind the core is built from.
	Kind() Kind
	// Stats snapshots the metrics sink the core records into. One sink
	// is threaded through every layer of a composition, so the
	// outermost Stats already aggregates the whole stack; a core built
	// without metrics returns the zero Snapshot.
	Stats() metrics.Snapshot
}

// Ring is a recyclable bounded core: a Core plus the seal/drain/reset
// lifecycle the unbounded linked-ring construction drives. New
// returns this full contract; consumers that never seal (sharded)
// hold the Core subset.
type Ring[T any] interface {
	Core[T]
	// Seal closes the ring for enqueues: EnqueueSealed fails once the
	// seal is visible, while dequeues drain the remainder normally.
	Seal()
	// Reset reopens a sealed ring. Only sound on a Drained ring
	// reachable by no other goroutine (the recycling pool's
	// exclusivity guarantee).
	Reset()
	// Drained reports that no value can ever be produced by this ring
	// again: sealed, no enqueue in flight, every ticket examined.
	Drained() bool
}

// New builds an empty ring core of the given kind holding up to
// capacity values (a power of two >= 2). maxThreads bounds Acquire
// for census kinds (KindWCQ) and is ignored by census-free kinds.
func New[T any](kind Kind, capacity uint64, maxThreads int, opts *Options) (Ring[T], error) {
	switch kind {
	case KindWCQ:
		q, err := wcq.NewQueue[T](capacity, maxThreads, opts.WCQ())
		if err != nil {
			return nil, err
		}
		return wcqCore[T]{q}, nil
	case KindSCQ:
		q, err := scq.NewQueue[T](capacity, opts.mode())
		if err != nil {
			return nil, err
		}
		q.SetMetrics(opts.Sink())
		return scqCore[T]{q}, nil
	}
	return nil, fmt.Errorf("ringcore: unknown ring kind %d", int(kind))
}

// wcqCore adapts *wcq.Queue to the Ring contract. The embedded queue
// already provides Cap/Footprint/Seal/Reset/Drained; only handle
// acquisition and the kind tag are added, and *wcq.QueueHandle
// satisfies Handle structurally (it carries the per-handle batch
// scratch itself).
type wcqCore[T any] struct{ *wcq.Queue[T] }

// Kind reports KindWCQ.
func (c wcqCore[T]) Kind() Kind { return KindWCQ }

// Stats snapshots the queue's metrics sink (zero when disabled).
func (c wcqCore[T]) Stats() metrics.Snapshot { return c.Queue.Metrics().Snapshot() }

// Acquire registers a thread record in both underlying rings; it
// fails once the census is exhausted.
func (c wcqCore[T]) Acquire() (Handle[T], error) {
	h, err := c.Queue.Register()
	if err != nil {
		return nil, err
	}
	return h, nil
}

// scqCore adapts *scq.Queue to the Ring contract. SCQ has no thread
// census: Acquire never fails and merely hands out a fresh
// *scq.QueueHandle carrying the per-handle batch scratch.
type scqCore[T any] struct{ *scq.Queue[T] }

// Kind reports KindSCQ.
func (c scqCore[T]) Kind() Kind { return KindSCQ }

// Stats snapshots the queue's metrics sink (zero when disabled).
func (c scqCore[T]) Stats() metrics.Snapshot { return c.Queue.Metrics().Snapshot() }

// Acquire returns a fresh census-free handle.
func (c scqCore[T]) Acquire() (Handle[T], error) {
	return c.Queue.Register(), nil
}
