// Package sharded composes N independent ring cores into one MPMC
// FIFO that spreads the single fetch-and-add hot word of the
// underlying queues across N head/tail pairs — the "independent
// sub-structure" scaling step the paper's evaluation motivates once a
// single ring saturates.
//
// Shards are consumed exclusively through the ringcore contract, so
// one code path serves the whole kind x composition matrix: bounded
// wCQ or SCQ shards (Options.Kind), and unbounded linked-ring shards
// (Options.Unbounded) whose per-shard growth removes the global
// capacity bound entirely.
//
// # Semantics
//
// Each handle has a fixed home shard assigned round-robin at
// registration; all of its enqueues go there, so any one handle's
// values traverse exactly one linearizable FIFO and per-(shard,handle)
// order is preserved — the per-producer FIFO property the checker
// verifies survives sharding. Dequeue probes the home shard first
// (one probe in balanced workloads, and every handle preferentially
// drains the shard it fills), then steals round-robin from a
// persistent per-handle cursor, visiting every shard before reporting
// empty — so no shard starves even with a single consumer.
//
// The relaxations relative to a single wCQ are the usual sharding
// trade-offs, and are deliberate:
//
//   - Global inter-producer ordering is not linearizable: values from
//     different handles live in different shards and may be observed
//     in either order. Per-handle order is strict.
//   - Enqueue reports full when the handle's HOME shard is full, even
//     if other shards have room (capacity is per-shard, Cap() is the
//     sum). Producers that spin on full make progress as long as any
//     consumer is draining, because consumers scan every shard. With
//     unbounded shards "full" cannot happen at all.
//   - Dequeue reports empty only after one full scan of all shards; a
//     value enqueued to an already-scanned shard during the scan may
//     be missed once, like any emptiness check that is not a snapshot.
//
// # Batching
//
// EnqueueBatch/DequeueBatch amortize the per-operation handle and
// shard-selection overhead AND the underlying rings' reservation cost:
// an enqueue batch pays the home-shard lookup once and hands the whole
// batch to the shard's native ring batch (one Tail F&A per batch
// instead of one per element); a dequeue batch drains chunk-sized runs
// from one shard before rotating, each chunk one Head F&A. The
// stealStride fairness bound is kept by counting every stolen value
// against the cursor's streak. They implement the queueapi.Batcher
// contract natively.
package sharded

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/ringcore"
	"repro/internal/unbounded"
)

// DefaultShards is the shard count used when Options.Shards is 0.
const DefaultShards = 4

// Options tunes the sharded composition.
type Options struct {
	// Shards is the number of independent sub-queues (default
	// DefaultShards). For bounded shards the total capacity is split
	// evenly, so capacity / Shards must itself be a power of two >= 2.
	Shards int
	// Kind selects the ring core each shard is built from:
	// wait-free wCQ (the default) or lock-free SCQ.
	Kind ringcore.Kind
	// Unbounded makes every shard an unbounded linked-ring queue of
	// the configured Kind (per-shard growth, no global capacity):
	// the capacity argument of New becomes each shard's ring size
	// instead of a bound, Cap() reports 0, Enqueue never reports
	// full, and Footprint() is live.
	Unbounded bool
	// Core tunes the ring cores; nil selects the paper's defaults.
	Core *ringcore.Options
}

func (o *Options) withDefaults() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.Shards == 0 {
		v.Shards = DefaultShards
	}
	return v
}

// Queue is a sharded MPMC FIFO of values of type T over
// []ringcore.Core — one code path regardless of shard kind or
// boundedness. The pre-ringcore implementation kept parallel concrete
// arrays per kind so the scalar hot path avoided dynamic dispatch;
// this version deliberately trades that (one indirect call per
// scalar op, a few percent at 1 vCPU) for a composition that works
// with every current and future core, and the batch paths amortize
// the dispatch along with everything else.
//
// *Queue is itself a ringcore.Core, so the registry and the public
// facade consume it exactly like a single ring core.
type Queue[T any] struct {
	cores    []ringcore.Core[T]
	ringCap  uint64        // each shard's ring capacity (bounded) or ring size (unbounded)
	met      *metrics.Sink // shared with every shard via Options.Core
	nextHome atomic.Int64
}

// Handle is a goroutine's capability to use a sharded Queue. Like the
// underlying core handles it must not be shared between goroutines.
type Handle[T any] struct {
	hs     []ringcore.Handle[T] //wfq:stable
	n      int                  //wfq:stable shard count
	home   int                  //wfq:stable
	met    *metrics.Sink        //wfq:stable nil = disabled
	cursor int                  // steal scan position, persists across calls
	streak int                  // consecutive steals from shard `cursor`
}

// stealStride bounds how many consecutive steals a handle takes from
// one foreign shard before its steal cursor rotates onward. Sticking
// to a yielding shard is cheap; the bound guarantees the steal scan
// visits every shard at least once per stealStride*Shards steals, so
// no shard starves even when one stays hot.
const stealStride = 128

// New returns an empty sharded queue usable by at most maxThreads
// handles. With bounded shards (the default), capacity is the TOTAL
// capacity split evenly across shards, and capacity / shards must be
// a power of two >= 2. With Options.Unbounded, capacity is instead
// the ring size of EVERY shard's linked rings (a power of two >= 2, a
// growth granularity rather than a bound). Every handle registers
// with every shard, so each shard is built for maxThreads.
func New[T any](capacity uint64, maxThreads int, opts *Options) (*Queue[T], error) {
	o := opts.withDefaults()
	if o.Shards < 1 {
		return nil, fmt.Errorf("sharded: shard count must be >= 1, got %d", o.Shards)
	}
	q := &Queue[T]{ringCap: capacity, met: o.Core.Sink()}
	if o.Unbounded {
		for i := 0; i < o.Shards; i++ {
			u, err := unbounded.New[T](o.Kind, capacity, maxThreads, o.Core)
			if err != nil {
				return nil, fmt.Errorf("sharded: shard %d: %w", i, err)
			}
			q.cores = append(q.cores, u)
		}
		return q, nil
	}
	if capacity == 0 || capacity%uint64(o.Shards) != 0 {
		return nil, fmt.Errorf("sharded: capacity %d not divisible by %d shards", capacity, o.Shards)
	}
	per := capacity / uint64(o.Shards)
	if per < 2 || per&(per-1) != 0 {
		return nil, fmt.Errorf("sharded: per-shard capacity %d (= %d/%d) must be a power of two >= 2",
			per, capacity, o.Shards)
	}
	q.ringCap = per
	for i := 0; i < o.Shards; i++ {
		core, err := ringcore.New[T](o.Kind, per, maxThreads, o.Core)
		if err != nil {
			return nil, fmt.Errorf("sharded: shard %d: %w", i, err)
		}
		q.cores = append(q.cores, core)
	}
	return q, nil
}

// Acquire allocates a handle with home-shard affinity assigned
// round-robin across registrations. Safe to call concurrently.
func (q *Queue[T]) Acquire() (ringcore.Handle[T], error) {
	n := q.Shards()
	home := int((q.nextHome.Add(1) - 1) % int64(n))
	hs := make([]ringcore.Handle[T], n)
	for i, core := range q.cores {
		ch, err := core.Acquire()
		if err != nil {
			return nil, fmt.Errorf("sharded: registering with shard %d: %w", i, err)
		}
		hs[i] = ch
	}
	return &Handle[T]{hs: hs, n: n, home: home, met: q.met, cursor: home}, nil
}

// Shards returns the shard count.
func (q *Queue[T]) Shards() int { return len(q.cores) }

// Stats snapshots the composition's metrics sink. The shards record
// into the same sink (threaded through Options.Core), so this single
// snapshot covers steal traffic AND every shard's core events.
func (q *Queue[T]) Stats() metrics.Snapshot { return q.met.Snapshot() }

// Kind returns the ring kind the shards are built from.
func (q *Queue[T]) Kind() ringcore.Kind { return q.cores[0].Kind() }

// RingCap returns each shard's ring capacity: the per-shard capacity
// with bounded shards, the linked rings' size with unbounded ones.
func (q *Queue[T]) RingCap() uint64 { return q.ringCap }

// Cap returns the total capacity (sum over shards), or 0 with
// unbounded shards.
func (q *Queue[T]) Cap() uint64 {
	var total uint64
	for _, c := range q.cores {
		total += c.Cap()
	}
	return total
}

// Rings returns the live linked rings summed over unbounded shards
// (0 with bounded shards). Racy by nature; for introspection.
func (q *Queue[T]) Rings() int {
	n := 0
	for _, c := range q.cores {
		if r, ok := c.(interface{ Rings() int }); ok {
			n += r.Rings()
		}
	}
	return n
}

// Footprint returns the bytes the shards retain right now, summed
// through the ringcore contract: a constant for bounded shards, a
// live grow-and-shrink figure for unbounded ones.
func (q *Queue[T]) Footprint() uint64 {
	var total uint64
	for _, c := range q.cores {
		total += c.Footprint()
	}
	return total
}

// Empty reports that every shard held no unclaimed value at some
// (per-shard) instant during the call. The per-shard probes happen at
// different instants, which is still the guarantee a sequential
// producer needs: its earlier value either sat unclaimed in its home
// shard when that shard was probed (probe false, no handoff) or had
// been claimed by a dequeuer that then owns it — this queue promises
// per-handle FIFO only, so cross-shard interleaving carries no
// obligation. One-sided like the core probes: false proves nothing.
//
//wfq:noalloc
func (q *Queue[T]) Empty() bool {
	for _, c := range q.cores {
		if !c.Empty() {
			return false
		}
	}
	return true
}

// Enqueue appends v to the handle's home shard; false means that shard
// is full (see the package comment for the capacity relaxation; with
// unbounded shards it cannot happen).
//
//wfq:noalloc
func (h *Handle[T]) Enqueue(v T) bool {
	return h.hs[h.home].Enqueue(v)
}

// EnqueueSealed is Enqueue: a sharded composition is never sealed
// (sealing is the linked-ring recycling lifecycle, which lives below
// this layer). It exists so *Handle satisfies ringcore.Handle.
//
//wfq:noalloc
func (h *Handle[T]) EnqueueSealed(v T) bool { return h.Enqueue(v) }

// EnqueueSealedBatch is EnqueueBatch, for the same reason as
// EnqueueSealed.
//
//wfq:noalloc
func (h *Handle[T]) EnqueueSealedBatch(vs []T) int { return h.EnqueueBatch(vs) }

// Dequeue removes the oldest value of some shard: the home shard
// first (the hit case in balanced workloads — one probe, and every
// handle preferentially drains the shard it fills), then a stealing
// scan over the others from the persistent cursor. ok is false only
// after home plus a full scan found every shard empty.
//
//wfq:noalloc
func (h *Handle[T]) Dequeue() (v T, ok bool) {
	if v, ok = h.hs[h.home].Dequeue(); ok {
		return v, ok
	}
	return h.steal()
}

// steal scans the foreign shards round-robin from the cursor. On a
// hit the cursor sticks (the shard likely has more) up to stealStride
// consecutive steals, then rotates onward. Each scan counts one
// StealAttempt; a scan that yields a value counts one StealHit, so
// hit/attempt is the steal success rate.
//
//wfq:noalloc
func (h *Handle[T]) steal() (v T, ok bool) {
	hs, n, home := h.hs, h.n, h.home // hoisted: loop-invariant (//wfq:stable)
	met := h.met                     // hoisted: loop-invariant (//wfq:stable)
	met.Inc(metrics.StealAttempt)
	for i := 0; i < n; i++ {
		s := h.cursor + i
		if s >= n {
			s -= n
		}
		if s == home {
			continue // already probed
		}
		if v, ok := hs[s].Dequeue(); ok {
			if s == h.cursor {
				h.streak++
			} else {
				h.streak = 1
			}
			if h.streak >= stealStride {
				h.streak = 0
				s++
				if s == n {
					s = 0
				}
			}
			h.cursor = s
			met.Inc(metrics.StealHit)
			return v, true
		}
	}
	return v, false
}

// EnqueueBatch appends a prefix of vs in order to the home shard
// through the shard's native ring batch (one reservation F&A per
// batch); it returns how many values were enqueued (a prefix of vs,
// preserving per-handle FIFO order — a short count means the home
// shard filled up, which unbounded shards never do). The home shard
// is resolved once for the whole batch.
//
//wfq:noalloc
func (h *Handle[T]) EnqueueBatch(vs []T) int {
	return h.hs[h.home].EnqueueBatch(vs)
}

// drainInto repeatedly batch-dequeues shard s into out until out is
// full or the shard appears empty, returning how many values were
// written and whether the shard looked drained.
//
//wfq:noalloc
func (h *Handle[T]) drainInto(s int, out []T) (n int, drained bool) {
	sh := h.hs[s]
	for n < len(out) {
		got := sh.DequeueBatch(out[n:])
		if got == 0 {
			return n, true
		}
		n += got
	}
	return n, false
}

// DequeueBatch fills out with values: a draining run of native ring
// batches from the home shard first, then stealing runs from the other
// shards round-robin from the persistent cursor. Every stolen value
// counts toward the cursor's streak, so the stealStride fairness bound
// holds across batches exactly as it does for scalar steals. It
// returns how many values were written; 0 means home plus a full scan
// found all shards empty.
//
//wfq:noalloc
func (h *Handle[T]) DequeueBatch(out []T) int {
	n, home := h.n, h.home // hoisted: loop-invariant (//wfq:stable)
	filled, _ := h.drainInto(home, out)
	fromHome := filled
	if n > 1 && filled < len(out) {
		// The foreign scan below will run: one steal attempt, a hit if
		// it yields anything — the same accounting as the scalar steal.
		h.met.Inc(metrics.StealAttempt)
	}
	start := h.cursor
	for i := 0; i < n && filled < len(out); i++ {
		s := start + i
		if s >= n {
			s -= n
		}
		if s == home {
			continue // already drained
		}
		got, drained := h.drainInto(s, out[filled:])
		filled += got
		if !drained {
			// Buffer full mid-shard: the shard may have more. Stick to
			// it, unless the accumulated streak exhausts the fairness
			// bound, in which case rotate onward. The streak is
			// per-shard, exactly as in the scalar steal(): a run from a
			// shard other than the current cursor starts a fresh streak.
			if s == h.cursor {
				h.streak += got
			} else {
				h.streak = got
			}
			if h.streak >= stealStride {
				h.streak = 0
				s++
				if s == n {
					s = 0
				}
			}
			h.cursor = s
		} else if got > 0 {
			next := s + 1
			if next == n {
				next = 0
			}
			h.cursor = next
			h.streak = 0
		}
	}
	if filled > fromHome {
		h.met.Inc(metrics.StealHit)
	}
	return filled
}
