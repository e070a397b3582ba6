// Package unbounded implements the paper's Appendix A construction:
// unbounded queues built by linking bounded rings — LSCQ (SCQ rings)
// and UWCQ (wCQ rings). A ring that fills up (or is finalized) is
// sealed and a fresh ring is appended; dequeuers advance past sealed,
// drained rings. Outer-list operations are rare, so throughput is
// dominated by the ring operations, as the paper observes.
//
// Both variants are one construction: the rings are consumed through
// the ringcore contract (ringcore.Ring / ringcore.Handle), so the
// kind is a constructor parameter instead of a pair of hand-written
// adapter stacks, and any future ring kind rides along for free.
//
// To keep the paper's "bounded memory usage" story honest under churn,
// drained rings are not abandoned to the garbage collector: a bounded
// free-list (the ring pool) recycles them, so a steady
// burst-and-drain workload reaches a fixed ring population instead of
// allocating a fresh ring per turnover. Recycling a ring while a
// straggler still holds a reference would be unsound, so each list
// node carries a pin counter and a retired flag (see the comment on
// node); a ring whose node is pinned at retirement is simply left to
// the GC.
//
// Faithfulness note: the appendix links rings with the CRTurn wait-free
// list so the WHOLE unbounded queue is wait-free. This port uses the
// Michael & Scott-style outer list that LSCQ/LCRQ use (the paper's own
// LSCQ formulation); the rings retain their wait-free/lock-free
// progress and the list itself is lock-free, but ring turnover
// briefly serializes on the recycling pool's mutex (once per ringCap
// values). ARCHITECTURE.md records both substitutions.
package unbounded

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/pad"
	"repro/internal/ringcore"
)

// DefaultPoolRings is the default capacity of the sealed-ring
// free-list: how many drained rings a queue retains for reuse before
// handing surplus rings to the garbage collector.
const DefaultPoolRings = 4

// node is one link of the outer list. Nodes are never reused (only
// their rings are), so the head/tail/next pointers cannot suffer ABA.
//
// pins and retired implement the reclamation handshake that makes
// ring recycling safe: every operation pins the node before touching
// its ring and re-checks retired afterwards, while the dequeuer that
// advances head past the node stores retired BEFORE loading pins.
// With Go's sequentially consistent atomics, either the straggler's
// pin is visible to the retirer (the ring is left to the GC) or the
// retirement is visible to the straggler (it backs off without
// touching the ring). Only unpinned retired rings enter the pool, so
// a recycled ring is reachable exclusively through its new node.
type node[T any] struct {
	r       ringcore.Ring[T]
	next    atomic.Pointer[node[T]]
	pins    atomic.Int64
	retired atomic.Bool
}

// Queue is an unbounded MPMC FIFO of values of type T, linking bounded
// rings of the configured kind. Enqueue never reports full: a sealed
// or full tail ring is replaced by a fresh (pooled or newly allocated)
// ring.
//
//wfq:isolate
type Queue[T any] struct {
	_       pad.Line
	head    atomic.Pointer[node[T]]
	_       pad.Line
	tail    atomic.Pointer[node[T]]
	_       pad.Line
	mk      func() (ringcore.Ring[T], error)
	met     *metrics.Sink //wfq:stable nil = disabled; shared with the rings via Options
	pool    ringPool[T]
	allocd  atomic.Int64 //wfq:cold rings ever constructed: once per turnover
	reused  atomic.Int64 //wfq:cold rings served from the pool: once per turnover
	handles atomic.Int64 //wfq:cold registration only
	// maxHandles bounds Handle() calls (0 = unlimited). Census kinds
	// (wCQ) set it to the per-ring thread census so view registration
	// can never fail.
	maxHandles int
	ringCap    uint64
	kind       ringcore.Kind
}

// Handle is a goroutine's view of a Queue. It lazily obtains (and
// caches, per ring) a view of each ring generation it touches. A
// Handle must not be used by two goroutines concurrently.
type Handle[T any] struct {
	q     *Queue[T]
	mu    sync.Mutex // protects views (a handle may be polled from tests)
	views map[ringcore.Ring[T]]ringcore.Handle[T]
}

// New returns an unbounded queue linking rings of the given kind,
// each holding ringCap values (a power of two >= 2). For census ring
// kinds (KindWCQ, the paper's UWCQ) maxThreads bounds Handle — the
// census is per ring, and bounding handles up front is what makes
// every later ring registration infallible; census-free kinds (the
// paper's LSCQ) accept any number of handles and ignore maxThreads.
func New[T any](kind ringcore.Kind, ringCap uint64, maxThreads int, opts *ringcore.Options) (*Queue[T], error) {
	maxHandles := 0
	if kind.Census() {
		if maxThreads < 1 {
			return nil, fmt.Errorf("unbounded: maxThreads must be >= 1 for ring kind %s, got %d", kind, maxThreads)
		}
		maxHandles = maxThreads
	}
	mk := func() (ringcore.Ring[T], error) {
		return ringcore.New[T](kind, ringCap, maxThreads, opts)
	}
	q := &Queue[T]{mk: mk, ringCap: ringCap, maxHandles: maxHandles, kind: kind, met: opts.Sink()}
	q.pool.max = DefaultPoolRings
	first, err := mk()
	if err != nil {
		return nil, err
	}
	n := &node[T]{r: first}
	q.head.Store(n)
	q.tail.Store(n)
	q.allocd.Store(1)
	return q, nil
}

// SetPoolCap resizes the sealed-ring free-list (0 disables recycling).
// Call it before the queue is shared between goroutines.
func (q *Queue[T]) SetPoolCap(n int) { q.pool.max = n }

// Acquire returns a per-goroutine view. For census ring kinds it
// fails once maxThreads handles exist.
func (q *Queue[T]) Acquire() (ringcore.Handle[T], error) {
	if q.maxHandles > 0 && q.handles.Add(1) > int64(q.maxHandles) {
		q.handles.Add(-1)
		return nil, fmt.Errorf("unbounded: handle census exhausted (maxThreads %d)", q.maxHandles)
	}
	return &Handle[T]{q: q, views: make(map[ringcore.Ring[T]]ringcore.Handle[T])}, nil
}

// Kind returns the ring kind the queue links.
func (q *Queue[T]) Kind() ringcore.Kind { return q.kind }

// Stats snapshots the queue's metrics sink: the linked rings record
// their core events into the same sink (threaded through Options), so
// one snapshot covers ring turnover AND the per-ring slow paths.
func (q *Queue[T]) Stats() metrics.Snapshot { return q.met.Snapshot() }

// Cap reports 0: the queue has no capacity bound.
func (q *Queue[T]) Cap() uint64 { return 0 }

// RingCap returns the capacity of each ring.
func (q *Queue[T]) RingCap() uint64 { return q.ringCap }

// RingsAllocated reports how many rings were ever constructed. With
// recycling, a steady burst/drain workload keeps this flat once the
// pool is primed.
func (q *Queue[T]) RingsAllocated() int64 { return q.allocd.Load() }

// RingsRecycled reports how many ring turnovers were served from the
// pool instead of allocating.
func (q *Queue[T]) RingsRecycled() int64 { return q.reused.Load() }

// Rings returns the number of live rings — the current length of the
// outer list, excluding pooled rings. Racy by nature; for
// introspection and figures.
func (q *Queue[T]) Rings() int {
	n := 0
	for ln := q.head.Load(); ln != nil; ln = ln.next.Load() {
		n++
	}
	return n
}

// Footprint returns the bytes retained right now: every live ring of
// the outer list plus the rings parked in the free-list. This is the
// live-memory signal of the paper's Fig. 10a applied to the unbounded
// variants — it grows while a burst is buffered and shrinks back to
// (1 + pool) rings once drained.
func (q *Queue[T]) Footprint() uint64 {
	f := q.pool.footprint()
	for n := q.head.Load(); n != nil; n = n.next.Load() {
		f += n.r.Footprint()
	}
	return f
}

// view returns this handle's cached view of r, creating it on first
// touch. Entries are pruned only for rings that can no longer recur
// (neither live, nor pooled, nor in flight between structures during
// an append or a retire), so a handle registers with any given ring
// at most once — the invariant that keeps wCQ's per-ring census
// sufficient. A failed registration therefore means that invariant
// broke, and panics.
//
//wfq:allocok per-ring view cache: registers once per ring generation
func (h *Handle[T]) view(r ringcore.Ring[T]) ringcore.Handle[T] {
	h.mu.Lock()
	defer h.mu.Unlock()
	if v, ok := h.views[r]; ok {
		return v
	}
	v, err := r.Acquire()
	if err != nil {
		panic("unbounded: ring registration invariant broken: " + err.Error())
	}
	h.views[r] = v
	if len(h.views) > 16 {
		keep := h.q.reachableRings()
		for k := range h.views {
			if !keep[k] {
				delete(h.views, k)
			}
		}
	}
	return v
}

// reachableRings snapshots every ring that can still recur: live,
// pooled, or in flight between structures. The whole snapshot runs
// under the pool mutex — every transition between the three states
// takes that lock (takeRing/linkRing/put/markInflight), so a ring
// mid-transition is always caught in at least one scan; a two-phase
// snapshot without the lock could miss a ring that moved from pool to
// live list between the scans (linkRing unmarks only after the node
// is linked), and a missed ring costs a second census registration on
// reuse.
func (q *Queue[T]) reachableRings() map[ringcore.Ring[T]]bool {
	keep := map[ringcore.Ring[T]]bool{}
	q.pool.mu.Lock()
	defer q.pool.mu.Unlock()
	for ln := q.head.Load(); ln != nil; ln = ln.next.Load() {
		keep[ln.r] = true
	}
	for _, r := range q.pool.rings {
		keep[r] = true
	}
	for r := range q.pool.inflight {
		keep[r] = true
	}
	return keep
}

// takeRing produces the next tail ring: from the pool when one is
// parked there, freshly allocated otherwise. Either way the ring is
// registered as in flight until linkRing or returnRing retires the
// append, so concurrent view pruning cannot orphan census
// registrations. The ring parameters were validated when New built
// the first ring, so a construction failure here is a broken
// invariant, and panics.
//
//wfq:allocok ring turnover: pooled or freshly allocated, once per ringCap values
func (q *Queue[T]) takeRing() ringcore.Ring[T] {
	if r, ok := q.pool.get(); ok {
		r.Reset()
		q.reused.Add(1)
		q.met.Inc(metrics.RingPoolHit)
		return r
	}
	r, err := q.mk()
	if err != nil {
		panic("unbounded: ring construction invariant broken: " + err.Error())
	}
	q.pool.markInflight(r)
	q.allocd.Add(1)
	q.met.Inc(metrics.RingAlloc)
	return r
}

// linkRing retires a successful append.
//
//wfq:allocok mutex-guarded turnover bookkeeping
func (q *Queue[T]) linkRing(r ringcore.Ring[T]) { q.pool.unmarkInflight(r) }

// returnRing retires a lost append: the seeded value is reclaimed by
// the caller beforehand, and the (sealed, drained) ring goes back to
// the pool.
//
//wfq:allocok mutex-guarded turnover bookkeeping
func (q *Queue[T]) returnRing(r ringcore.Ring[T]) {
	r.Seal()
	q.pool.put(r)
	q.met.Inc(metrics.RingRecycle)
}

// Enqueue appends v and returns true: a sealed or full tail ring is
// sealed for good and replaced by a fresh one, seeded with v (as
// Enqueue_Unbounded does in Fig. 13). Broken invariants (ring
// construction or census failures that New rules out) panic instead
// of reading as a full queue a caller would retry forever.
//
//wfq:noalloc
func (h *Handle[T]) Enqueue(v T) bool {
	q := h.q
	met := q.met // hoisted: loop-invariant (//wfq:stable)
	for {
		ltail := q.tail.Load()
		ltail.pins.Add(1)
		if ltail.retired.Load() {
			// Head already passed this node; its ring may be recycled.
			// A retired node always has a successor, so help the
			// stalled linker advance tail instead of spinning on the
			// stale pointer until that goroutine resumes.
			ltail.pins.Add(-1)
			if next := ltail.next.Load(); next != nil {
				q.tail.CompareAndSwap(ltail, next)
			}
			continue
		}
		if next := ltail.next.Load(); next != nil {
			ltail.pins.Add(-1)
			q.tail.CompareAndSwap(ltail, next)
			continue
		}
		if h.view(ltail.r).EnqueueSealed(v) {
			ltail.pins.Add(-1)
			return true
		}
		// Full or finalized: seal it and append a fresh ring seeded
		// with v.
		ltail.r.Seal()
		nr := q.takeRing()
		nv := h.view(nr)
		if !nv.EnqueueSealed(v) {
			panic("unbounded: fresh ring rejected enqueue")
		}
		nn := &node[T]{r: nr} //wfq:ignore hotalloc growth path: one node per ring turnover
		if ltail.next.CompareAndSwap(nil, nn) {
			q.tail.CompareAndSwap(ltail, nn)
			q.linkRing(nr)
			met.Inc(metrics.RingSeal)
			ltail.pins.Add(-1)
			return true
		}
		// Lost the append race: reclaim the seed (the ring was never
		// linked, so this handle still owns it exclusively) and park
		// the ring for reuse, then retry with the winner's ring.
		nv.Dequeue()
		q.returnRing(nr)
		ltail.pins.Add(-1)
	}
}

// Dequeue removes the oldest value; ok is false when the whole queue
// is empty.
//
//wfq:noalloc
func (h *Handle[T]) Dequeue() (v T, ok bool) {
	q := h.q
	for {
		lhead := q.head.Load()
		lhead.pins.Add(1)
		if lhead.retired.Load() {
			lhead.pins.Add(-1)
			continue
		}
		view := h.view(lhead.r)
		if v, ok := view.Dequeue(); ok {
			lhead.pins.Add(-1)
			return v, true
		}
		next := lhead.next.Load()
		if next == nil {
			lhead.pins.Add(-1)
			return v, false // no successor: genuinely empty
		}
		if !lhead.r.Drained() {
			lhead.pins.Add(-1)
			continue // in-flight enqueues may still land here
		}
		// One more look after the drain barrier, then advance. The
		// ring is marked in flight BEFORE the head CAS: from the
		// moment the CAS unlinks it until retire hands it to the pool
		// (or abandons it), the node is on no reachable structure, and
		// without the mark a concurrent view prune in that window
		// would drop a view of a ring that can still recur — costing
		// a second (census-consuming) registration on reuse.
		if v, ok := view.Dequeue(); ok {
			lhead.pins.Add(-1)
			return v, true
		}
		q.pool.markInflight(lhead.r)
		advanced := q.head.CompareAndSwap(lhead, next)
		lhead.pins.Add(-1)
		if advanced {
			q.retire(lhead)
		} else {
			q.pool.unmarkInflight(lhead.r)
		}
	}
}

// EnqueueBatch appends vs in order, filling the current tail ring with
// its native batch reservation and rolling over to a fresh ring with
// the remainder on partial success — so a batch larger than one ring's
// free space spans rings without losing its internal order. Like
// Enqueue it always succeeds, returning len(vs).
//
//wfq:noalloc
func (h *Handle[T]) EnqueueBatch(vs []T) int {
	q := h.q
	met := q.met // hoisted: loop-invariant (//wfq:stable)
	sent := 0
	for sent < len(vs) {
		ltail := q.tail.Load()
		ltail.pins.Add(1)
		if ltail.retired.Load() {
			// Same as the scalar path: help the stalled linker advance.
			ltail.pins.Add(-1)
			if next := ltail.next.Load(); next != nil {
				q.tail.CompareAndSwap(ltail, next)
			}
			continue
		}
		if next := ltail.next.Load(); next != nil {
			ltail.pins.Add(-1)
			q.tail.CompareAndSwap(ltail, next)
			continue
		}
		if n := h.view(ltail.r).EnqueueSealedBatch(vs[sent:]); n > 0 {
			sent += n
			if sent == len(vs) {
				ltail.pins.Add(-1)
				return sent
			}
		}
		// Full or finalized mid-batch: seal it and append a fresh ring
		// seeded with as much of the remainder as fits.
		ltail.r.Seal()
		nr := q.takeRing()
		nv := h.view(nr)
		m := nv.EnqueueSealedBatch(vs[sent:])
		if m == 0 {
			panic("unbounded: fresh ring rejected batch enqueue")
		}
		nn := &node[T]{r: nr} //wfq:ignore hotalloc growth path: one node per ring turnover
		if ltail.next.CompareAndSwap(nil, nn) {
			q.tail.CompareAndSwap(ltail, nn)
			q.linkRing(nr)
			met.Inc(metrics.RingSeal)
			ltail.pins.Add(-1)
			sent += m
			continue // a batch larger than a ring keeps rolling
		}
		// Lost the append race: reclaim the seeds (the ring was never
		// linked, so this handle still owns it exclusively) and park
		// the ring for reuse, then retry with the winner's ring.
		for j := 0; j < m; j++ {
			nv.Dequeue()
		}
		q.returnRing(nr)
		ltail.pins.Add(-1)
	}
	return sent
}

// DequeueBatch fills a prefix of out with the oldest values, draining
// across ring boundaries (a drained head ring is retired and the scan
// continues on its successor) without reordering — ring G is drained
// before any value of ring G+1 is taken, so FIFO survives the batch.
// It returns how many values were written; 0 means the whole queue
// appeared empty. A batch cut short by a ring whose producers are
// still in flight returns the partial prefix instead of spinning.
//
//wfq:noalloc
func (h *Handle[T]) DequeueBatch(out []T) int {
	q := h.q
	filled := 0
	for filled < len(out) {
		lhead := q.head.Load()
		lhead.pins.Add(1)
		if lhead.retired.Load() {
			lhead.pins.Add(-1)
			continue
		}
		view := h.view(lhead.r)
		if n := view.DequeueBatch(out[filled:]); n > 0 {
			filled += n
			lhead.pins.Add(-1)
			continue
		}
		next := lhead.next.Load()
		if next == nil {
			lhead.pins.Add(-1)
			return filled // no successor: nothing more buffered
		}
		if !lhead.r.Drained() {
			lhead.pins.Add(-1)
			if filled > 0 {
				return filled // partial batch beats spinning on in-flight enqueues
			}
			continue
		}
		// One more look after the drain barrier, then advance (the same
		// in-flight marking protocol as the scalar Dequeue).
		if n := view.DequeueBatch(out[filled:]); n > 0 {
			filled += n
			lhead.pins.Add(-1)
			continue
		}
		q.pool.markInflight(lhead.r)
		advanced := q.head.CompareAndSwap(lhead, next)
		lhead.pins.Add(-1)
		if advanced {
			q.retire(lhead)
		} else {
			q.pool.unmarkInflight(lhead.r)
		}
	}
	return filled
}

// retire runs on the dequeuer that advanced head past n (which marked
// n.r in flight before its CAS): mark the node retired, then recycle
// its ring only if no straggler holds a pin (see the node comment for
// why this order is the whole proof). Either path releases the
// in-flight mark.
//
//wfq:allocok mutex-guarded turnover bookkeeping
func (q *Queue[T]) retire(n *node[T]) {
	n.retired.Store(true)
	if n.pins.Load() == 0 {
		q.pool.put(n.r)
		q.met.Inc(metrics.RingRecycle)
		return
	}
	// Pinned: a straggler may still touch the ring; leave it to the GC.
	q.pool.unmarkInflight(n.r)
}

// ringPool is the bounded sealed-ring free-list. It also tracks rings
// that are "in flight" between leaving the pool (or allocation) and
// being linked at the tail, so Handle.view pruning never drops a view
// of a ring that can come back.
type ringPool[T any] struct {
	mu    sync.Mutex
	rings []ringcore.Ring[T] // LIFO: the most recently drained ring is the cache-warmest
	// inflight is a reference count per ring: dequeuers racing the
	// same head CAS each take a mark, and only the last release drops
	// the ring from the reachable set.
	inflight map[ringcore.Ring[T]]int
	max      int
}

// get removes a parked ring and marks it in flight.
func (p *ringPool[T]) get() (ringcore.Ring[T], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.rings) == 0 {
		return nil, false
	}
	r := p.rings[len(p.rings)-1]
	p.rings = p.rings[:len(p.rings)-1]
	p.markInflightLocked(r)
	return r, true
}

// put parks a sealed, drained, unreachable ring for reuse; when the
// pool is full the ring is dropped for the GC. Either way the
// caller's in-flight mark is released.
func (p *ringPool[T]) put(r ringcore.Ring[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unmarkInflightLocked(r)
	if len(p.rings) < p.max {
		p.rings = append(p.rings, r)
	}
}

//wfq:allocok mutex-guarded turnover bookkeeping
func (p *ringPool[T]) markInflight(r ringcore.Ring[T]) {
	p.mu.Lock()
	p.markInflightLocked(r)
	p.mu.Unlock()
}

func (p *ringPool[T]) markInflightLocked(r ringcore.Ring[T]) {
	if p.inflight == nil {
		p.inflight = map[ringcore.Ring[T]]int{}
	}
	p.inflight[r]++
}

//wfq:allocok mutex-guarded turnover bookkeeping
func (p *ringPool[T]) unmarkInflight(r ringcore.Ring[T]) {
	p.mu.Lock()
	p.unmarkInflightLocked(r)
	p.mu.Unlock()
}

func (p *ringPool[T]) unmarkInflightLocked(r ringcore.Ring[T]) {
	if n := p.inflight[r]; n > 1 {
		p.inflight[r] = n - 1
	} else {
		delete(p.inflight, r)
	}
}

// footprint sums the parked rings' allocation.
func (p *ringPool[T]) footprint() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var f uint64
	for _, r := range p.rings {
		f += r.Footprint()
	}
	return f
}

// Empty reports that the queue held no unclaimed value relevant to
// per-producer ordering at some instant during the call: the outer
// list was a single node (head == tail) and that node's ring counters
// had caught up. One-sided, like the bounded cores' probe: any value a
// sequential producer enqueued before this call was either in that
// lone ring (then the ring probe proves it was claimed) or in a ring
// already drained. Values other producers land concurrently in a
// successor ring carry no ordering obligation toward this probe's
// caller — the blocking facade, like the sharded queue, promises
// per-handle FIFO only.
//
//wfq:noalloc
func (q *Queue[T]) Empty() bool {
	h := q.head.Load()
	return h == q.tail.Load() && h.r.Empty()
}

// Pooled reports how many rings are currently parked in the free-list.
func (q *Queue[T]) Pooled() int {
	q.pool.mu.Lock()
	defer q.pool.mu.Unlock()
	return len(q.pool.rings)
}

// EnqueueSealed is Enqueue: an unbounded queue is never sealed (its
// rings are, below this layer). It exists so *Handle satisfies
// ringcore.Handle.
//
//wfq:noalloc
func (h *Handle[T]) EnqueueSealed(v T) bool { return h.Enqueue(v) }

// EnqueueSealedBatch is EnqueueBatch, for the same reason as
// EnqueueSealed.
//
//wfq:noalloc
func (h *Handle[T]) EnqueueSealedBatch(vs []T) int { return h.EnqueueBatch(vs) }
