package wfqueue

import (
	"context"
	"sync/atomic"
	"unsafe"

	"repro/internal/backoff"
	"repro/internal/metrics"
	"repro/internal/park"
	"repro/internal/queueapi"
	"repro/internal/ringcore"
)

// ErrClosed is returned by Chan operations after Close: sends fail
// with it immediately, receives fail with it once the buffered values
// have drained. It aliases the repository-wide sentinel so internal
// harnesses can match it with errors.Is.
var ErrClosed = queueapi.ErrClosed

// Backend selects the nonblocking core a Chan is built on.
type Backend int

const (
	// BackendWCQ buffers on the wait-free wCQ queue (the default).
	BackendWCQ Backend = iota
	// BackendSCQ buffers on the lock-free SCQ queue. It has no handle
	// census, so a Chan over it accepts any number of Handles.
	BackendSCQ
	// BackendSharded buffers on the sharded wCQ composition (see
	// NewSharded); tune the shard count with WithShards.
	BackendSharded
	// BackendUnbounded buffers on the unbounded linked-ring queue (see
	// NewUnbounded): Send never blocks on capacity — only Recv parks —
	// and NewChan's capacity parameter becomes the linked rings' size
	// (the retained-memory granularity), not a bound. Tune the ring
	// kind with WithRingKind.
	BackendUnbounded
	// BackendShardedUnbounded buffers on the sharded composition over
	// unbounded linked-ring shards (see NewSharded with
	// WithUnboundedShards): the head/tail hot words are spread across
	// shards AND Send never blocks on capacity — each shard grows
	// independently, only Recv parks. The capacity parameter becomes
	// each shard's ring size. Tune with WithShards and WithRingKind.
	BackendShardedUnbounded
)

// String names the backend as the queue registry does.
func (b Backend) String() string {
	switch b {
	case BackendWCQ:
		return "wCQ"
	case BackendSCQ:
		return "SCQ"
	case BackendSharded:
		return "Sharded"
	case BackendUnbounded:
		return "Unbounded"
	case BackendShardedUnbounded:
		return "ShardedUnbounded"
	}
	return "?"
}

// WithBackend selects the nonblocking core NewChan builds on. Other
// constructors ignore this option.
func WithBackend(b Backend) Option {
	return func(o *options) { o.backend = b }
}

// Chan is a blocking, closable facade over one of the nonblocking
// queues — the buffered-channel shape services want at the edge of a
// system, layered on the wait-free cores without touching their hot
// paths. Senders and receivers park (futex-style, via internal/park)
// when the buffer is full or empty; no operation spin-polls.
//
// The close contract mirrors Go channels but stays a library: Close
// makes every subsequent or blocked Send return ErrClosed (the value
// is NOT buffered), while receives keep draining buffered values and
// return ErrClosed only once the Chan is closed AND empty. Unlike a
// Go channel, closing twice returns ErrClosed instead of panicking,
// and sending on a closed Chan is an error, not a panic.
//
// Like the queues underneath, a Chan is used through per-goroutine
// Handles (the wCQ census); a Handle must not be shared by two
// goroutines running concurrently.
//
// With BackendSharded, "full" follows the sharded queue's semantics:
// a sender blocks when its handle's home shard (capacity/shards
// values) fills, even if other shards have room. Receivers drain all
// shards, so blocked senders still make progress.
//
// With BackendUnbounded and BackendShardedUnbounded there is no
// "full": Send always completes without parking (the buffer grows in
// ring-sized steps instead — per shard, for the sharded variant), and
// only Recv parks. The close contract is unchanged.
type Chan[T any] struct {
	core     ringcore.Core[T]
	notEmpty park.Point // receivers park here
	notFull  park.Point // senders park here
	// shardedFull marks the sharded backend, where "full" is a
	// per-home-shard condition: a slot freed in one shard is useless
	// to a sender homed elsewhere, so receivers must wake every
	// parked sender to re-check its own shard (FIFO Wake(1) could
	// hand the only wake to a sender whose shard is still full, which
	// re-parks and strands a free slot forever).
	shardedFull bool
	// met is the metrics sink shared with the backing core and both
	// park points (nil when WithMetrics was not given): the Chan layer
	// adds the close-drain count on top of the layers below.
	met    *metrics.Sink
	closed atomic.Bool
	// sending counts in-flight Send/TrySend calls. Receivers treat
	// "closed" as final only once this is zero: a sender that passed
	// the closed check may still be buffering its value, and draining
	// receivers must not give up before it lands (or aborts).
	sending atomic.Int64
	// takeover enables the sender-side half of the direct handoff (see
	// chan_handoff.go; the receiver-side half runs on every backend): a
	// receiver that
	// frees a slot enqueues a parked sender's pending value on its
	// behalf, so the woken sender returns without re-running its retry
	// loop. Only single-ring bounded backends qualify — on the sharded
	// backend the receiver's handle would enqueue into the wrong home
	// shard, breaking per-handle FIFO, and unbounded backends never
	// park senders.
	takeover bool
}

// ChanHandle is a goroutine's capability to use a Chan. Not safe for
// concurrent use by multiple goroutines.
type ChanHandle[T any] struct {
	c *Chan[T]
	h ringcore.Handle[T]
	// rng is this handle's private jitter stream for the spin/yield
	// wait phases: per-handle (so no sharing, no contention) and seeded
	// from a global counter (so a herd of handles decorrelates).
	rng backoff.Rand
	// rcell and scell are this handle's direct-handoff transfer cells:
	// a parking receiver arms rcell on notEmpty so a sender can publish
	// a value into it; a parking sender arms scell on notFull so a
	// receiver can enqueue the pending value on its behalf. They live
	// in the handle — one goroutine's private memory, never shared
	// concurrently (the claim protocol serializes the peer's write
	// against the owner's read) — so no cache-line padding is needed.
	rcell T
	scell T
}

// handleSeed hands each ChanHandle a distinct jitter seed.
var handleSeed atomic.Uint64

// NewChan returns an empty blocking channel facade buffering up to
// capacity values (a power of two >= 2) on the backend selected with
// WithBackend (default BackendWCQ), operated by at most maxThreads
// concurrent Handles (ignored by BackendSCQ, which has no census).
// With BackendUnbounded and BackendShardedUnbounded the buffer has no
// bound — capacity instead sets the linked rings' size (per shard,
// for the sharded variant) — and Send never blocks.
func NewChan[T any](capacity uint64, maxThreads int, opts ...Option) (*Chan[T], error) {
	o := buildOpts(opts)
	core, err := newCore[T](o.backend, capacity, maxThreads, o)
	if err != nil {
		return nil, err
	}
	c := &Chan[T]{
		core:        core,
		shardedFull: o.backend == BackendSharded,
		takeover:    o.backend == BackendWCQ || o.backend == BackendSCQ,
		met:         o.metrics,
	}
	c.notEmpty.SetMetrics(o.metrics)
	c.notFull.SetMetrics(o.metrics)
	c.notEmpty.SetStrategy(o.wait)
	c.notFull.SetStrategy(o.wait)
	return c, nil
}

// Stats snapshots the Chan's metrics sink: park/wake traffic, the
// blocking-wait duration ladder and wake-tranche sizes from both park
// points, close-drain observations, and every event the backing core
// recorded into the shared sink. The Waiters gauge — the goroutines
// parked on the Chan right now — is filled even without WithMetrics;
// all other fields are zero then.
func (c *Chan[T]) Stats() MetricsSnapshot {
	s := c.met.Snapshot()
	s.Waiters = c.notEmpty.Waiters() + c.notFull.Waiters()
	return s
}

// wakeNotFullN wakes parked senders after n slots freed up: n
// senders on single-ring backends (any sender can use any slot), all
// of them on the sharded backend (see shardedFull).
//
//wfq:noalloc
func (c *Chan[T]) wakeNotFullN(n int) {
	if c.shardedFull {
		c.notFull.WakeAll()
	} else {
		c.notFull.Wake(n)
	}
}

// Handle registers the calling goroutine and returns its handle. For
// census-bound backends it fails once maxThreads handles exist.
func (c *Chan[T]) Handle() (*ChanHandle[T], error) {
	h, err := c.core.Acquire()
	if err != nil {
		return nil, err
	}
	return &ChanHandle[T]{c: c, h: h, rng: backoff.NewRand(handleSeed.Add(1))}, nil
}

// Cap returns the buffer capacity; 0 means unbounded
// (BackendUnbounded and BackendShardedUnbounded).
func (c *Chan[T]) Cap() uint64 { return c.core.Cap() }

// Footprint returns the bytes the backing queue retains. For bounded
// backends this is the construction-time allocation and never changes
// (parked waiters draw from a shared pool); for BackendUnbounded and
// BackendShardedUnbounded it is the live ring footprint, which grows
// with buffered values and shrinks after a drain.
func (c *Chan[T]) Footprint() uint64 { return c.core.Footprint() }

// Rings returns the number of live linked rings behind an unbounded
// backend (summed over shards for BackendShardedUnbounded), or 0 for
// the bounded backends. Racy by nature; for introspection.
func (c *Chan[T]) Rings() int { return rings(c.core) }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed.Load() }

// Close closes the Chan: blocked and future sends fail with
// ErrClosed, receives drain the buffer and then fail with ErrClosed.
// A second Close returns ErrClosed.
func (c *Chan[T]) Close() error {
	if c.closed.Swap(true) {
		return ErrClosed
	}
	c.notEmpty.WakeAll()
	c.notFull.WakeAll()
	return nil
}

// finishSend retires one in-flight send and wakes receivers: one
// receiver for a delivered value, every parked receiver once the Chan
// is closed (each must re-evaluate the closed-and-drained condition
// now that the in-flight count moved).
//
//wfq:noalloc
func (c *Chan[T]) finishSend(delivered bool) {
	if delivered {
		c.finishSendN(1)
	} else {
		c.finishSendN(0)
	}
}

// finishSendN retires one in-flight send (scalar or batch) that
// delivered n values in its final step and wakes receivers
// accordingly. Values delivered by earlier steps of a batch send have
// already been signalled by then (see SendManyCtx).
//
//wfq:noalloc
func (c *Chan[T]) finishSendN(n int) {
	c.sending.Add(-1)
	if c.closed.Load() {
		c.notEmpty.WakeAll()
	} else if n > 0 {
		c.notEmpty.Wake(n)
	}
}

// TrySend is the nonblocking send: ok reports whether v was buffered
// (false with a nil error means the buffer is full), and err is
// ErrClosed after Close.
//
//wfq:noalloc
func (h *ChanHandle[T]) TrySend(v T) (ok bool, err error) {
	c := h.c
	c.sending.Add(1)
	if c.closed.Load() {
		c.finishSend(false)
		return false, ErrClosed
	}
	if h.tryHandoff(v) {
		// Delivered straight to a parked receiver, which was woken
		// directly — no notEmpty wake needed on top.
		c.finishSendN(0)
		return true, nil
	}
	ok = h.h.Enqueue(v)
	c.finishSend(ok)
	return ok, nil
}

// Send blocks until v is buffered, parking when the buffer is full.
// It returns ErrClosed (without buffering v) if the Chan closes
// first.
func (h *ChanHandle[T]) Send(v T) error { return h.SendCtx(context.Background(), v) }

// SendCtx is Send bounded by ctx: it returns ctx.Err() if the
// context expires before space frees up (v is not buffered).
func (h *ChanHandle[T]) SendCtx(ctx context.Context, v T) error {
	c := h.c
	c.sending.Add(1)
	for {
		if c.closed.Load() {
			c.finishSend(false)
			return ErrClosed
		}
		if h.tryHandoff(v) {
			// Delivered straight to a parked receiver (woken directly).
			c.finishSendN(0)
			return nil
		}
		if h.h.Enqueue(v) {
			c.finishSend(true)
			return nil
		}
		if err := ctx.Err(); err != nil {
			c.finishSend(false)
			return err
		}
		// Phases 1-2 of the wait: spin-then-yield re-checking the
		// full condition before committing to a park. A hit on close
		// (sent stays false) falls through to the registered re-check
		// below, which returns ErrClosed.
		sent := false
		if c.notFull.SpinWait(&h.rng, func() bool {
			if c.closed.Load() {
				return true
			}
			if h.h.Enqueue(v) {
				sent = true
				return true
			}
			return false
		}) && sent {
			c.finishSend(true)
			return nil
		}
		w := c.notFull.Prepare()
		// Re-check after registering: a receiver may have freed a
		// slot (or the Chan closed) before our waiter was visible,
		// in which case its wake cannot have targeted us.
		if c.closed.Load() {
			c.notFull.Abort(w)
			c.finishSend(false)
			return ErrClosed
		}
		if h.h.Enqueue(v) {
			c.notFull.Abort(w)
			c.finishSend(true)
			return nil
		}
		// Park commit: on takeover backends, arm the transfer cell so a
		// receiver freeing a slot can enqueue v on our behalf. Arming
		// only here — after the registered re-checks — keeps those
		// re-checks (which must be free to Enqueue and Abort) from
		// having to disarm first on every successful retry.
		if c.takeover {
			h.armSend(w, v)
		}
		select {
		case <-w.Ready():
			// Done before Finish: Finish recycles the waiter and resets
			// its transfer state.
			done := w.Done()
			c.notFull.Finish(w)
			if done {
				// A receiver enqueued v for us (exactly once); signal a
				// receiver for the value it made visible.
				c.finishSend(true)
				return nil
			}
		case <-ctx.Done():
			if c.notFull.Abort(w) {
				// The handoff landed before the abort: v is buffered.
				c.finishSend(true)
				return nil
			}
			c.finishSend(false)
			return ctx.Err()
		}
	}
}

// TryRecv is the nonblocking receive: ok reports whether a value was
// taken (false with a nil error means the buffer is empty), and err
// is ErrClosed once the Chan is closed and drained.
//
//wfq:noalloc
func (h *ChanHandle[T]) TryRecv() (v T, ok bool, err error) {
	c := h.c
	if v, ok := h.h.Dequeue(); ok {
		h.releaseSlot()
		return v, true, nil
	}
	var zero T
	if c.closed.Load() && c.sending.Load() == 0 {
		// Final re-check: with the in-flight counter at zero after
		// close, every completed send's value is visible.
		if v, ok := h.h.Dequeue(); ok {
			h.releaseSlot()
			return v, true, nil
		}
		c.met.Inc(metrics.CloseDrain)
		return zero, false, ErrClosed
	}
	return zero, false, nil
}

// Recv blocks until a value arrives, parking while the buffer is
// empty. After Close it keeps draining buffered values and returns
// ErrClosed once none remain.
func (h *ChanHandle[T]) Recv() (T, error) { return h.RecvCtx(context.Background()) }

// TrySendMany is the nonblocking batch send: it buffers a prefix of
// vs through the backend's native batch reservation and returns its
// length (a short count means the buffer filled mid-batch), or
// ErrClosed after Close (nothing is buffered then).
//
//wfq:noalloc
func (h *ChanHandle[T]) TrySendMany(vs []T) (int, error) {
	c := h.c
	c.sending.Add(1)
	if c.closed.Load() {
		c.finishSendN(0)
		return 0, ErrClosed
	}
	n := h.h.EnqueueBatch(vs)
	c.finishSendN(n)
	return n, nil
}

// SendMany blocks until every value of vs is buffered, in order,
// parking while the buffer is full. It returns how many values were
// buffered with ErrClosed if the Chan closes mid-batch (the count is
// the batch's delivered prefix; the rest was not buffered).
func (h *ChanHandle[T]) SendMany(vs []T) (int, error) {
	return h.SendManyCtx(context.Background(), vs)
}

// SendManyCtx is SendMany bounded by ctx: it returns the delivered
// prefix length and ctx.Err() if the context expires while the buffer
// is still full. Values buffered before an interruption stay
// buffered; receivers are woken as each chunk lands, not at the end
// of the batch.
func (h *ChanHandle[T]) SendManyCtx(ctx context.Context, vs []T) (int, error) {
	c := h.c
	if len(vs) == 0 {
		// Nothing to deliver: without this guard the loop below would
		// park on notFull forever (the success check lives inside the
		// delivered-a-chunk branch) while pinning the in-flight send
		// counter, wedging every receiver's close-drain check.
		if c.closed.Load() {
			return 0, ErrClosed
		}
		return 0, nil
	}
	c.sending.Add(1)
	sent := 0
	for {
		if c.closed.Load() {
			c.finishSendN(0)
			return sent, ErrClosed
		}
		// Rendezvous fast path: satisfy up to k parked receivers
		// directly, one value each (each handoff wakes its receiver, so
		// no notEmpty signal is owed for these).
		for sent < len(vs) && h.tryHandoff(vs[sent]) {
			sent++
		}
		if sent == len(vs) {
			c.finishSendN(0)
			return sent, nil
		}
		if n := h.h.EnqueueBatch(vs[sent:]); n > 0 {
			sent += n
			if sent == len(vs) {
				c.finishSendN(n)
				return sent, nil
			}
			c.notEmpty.Wake(n) // partial chunk is visible now; signal receivers
		}
		if err := ctx.Err(); err != nil {
			c.finishSendN(0)
			return sent, err
		}
		// Phases 1-2: spin-then-yield before parking, accumulating any
		// partial chunk the spin lands. A hit on close falls through to
		// the registered re-check below.
		progress := 0
		if c.notFull.SpinWait(&h.rng, func() bool {
			if c.closed.Load() {
				return true
			}
			if n := h.h.EnqueueBatch(vs[sent:]); n > 0 {
				progress = n
				return true
			}
			return false
		}) && progress > 0 {
			sent += progress
			if sent == len(vs) {
				c.finishSendN(progress)
				return sent, nil
			}
			c.notEmpty.Wake(progress)
			continue
		}
		w := c.notFull.Prepare()
		// Re-check after registering (lost-wakeup protocol, as SendCtx).
		if c.closed.Load() {
			c.notFull.Abort(w)
			c.finishSendN(0)
			return sent, ErrClosed
		}
		if n := h.h.EnqueueBatch(vs[sent:]); n > 0 {
			c.notFull.Abort(w)
			sent += n
			if sent == len(vs) {
				c.finishSendN(n)
				return sent, nil
			}
			c.notEmpty.Wake(n)
			continue
		}
		// Park commit: arm the next pending value for takeover (see
		// SendCtx for why arming waits until after the re-checks).
		if c.takeover {
			h.armSend(w, vs[sent])
		}
		select {
		case <-w.Ready():
			done := w.Done()
			c.notFull.Finish(w)
			if done {
				// A receiver enqueued vs[sent] for us (exactly once).
				sent++
				if sent == len(vs) {
					c.finishSendN(1)
					return sent, nil
				}
				c.notEmpty.Wake(1)
			}
		case <-ctx.Done():
			if c.notFull.Abort(w) {
				// The takeover landed before the abort: vs[sent] is
				// buffered and counts toward the delivered prefix.
				sent++
				c.finishSendN(1)
				if sent == len(vs) {
					return sent, nil
				}
				return sent, ctx.Err()
			}
			c.finishSendN(0)
			return sent, ctx.Err()
		}
	}
}

// TryRecvMany is the nonblocking batch receive: it fills a prefix of
// out through the backend's native batch reservation and returns its
// length (0 with a nil error means the buffer is empty), or ErrClosed
// once the Chan is closed and drained.
//
//wfq:noalloc
func (h *ChanHandle[T]) TryRecvMany(out []T) (int, error) {
	c := h.c
	if n := h.h.DequeueBatch(out); n > 0 {
		h.releaseSlots(n)
		return n, nil
	}
	if c.closed.Load() && c.sending.Load() == 0 {
		// Final re-check: with the in-flight counter at zero after
		// close, every completed send's value is visible.
		if n := h.h.DequeueBatch(out); n > 0 {
			h.releaseSlots(n)
			return n, nil
		}
		c.met.Inc(metrics.CloseDrain)
		return 0, ErrClosed
	}
	return 0, nil
}

// RecvMany blocks until at least one value is available, then fills a
// prefix of out without waiting for more and returns its length. It
// never returns 0 with a nil error. After Close it keeps draining —
// the final values come back as a partial batch — and returns
// ErrClosed once nothing remains.
func (h *ChanHandle[T]) RecvMany(out []T) (int, error) {
	return h.RecvManyCtx(context.Background(), out)
}

// RecvManyCtx is RecvMany bounded by ctx: it returns ctx.Err() if the
// context expires while the buffer is still empty.
//
// A landed handoff satisfies the "at least one value" contract with
// out[0]: the claim protocol transfers exactly one value per
// registration (see RecvCtx for the protocol).
func (h *ChanHandle[T]) RecvManyCtx(ctx context.Context, out []T) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	c := h.c
	for {
		if n := h.h.DequeueBatch(out); n > 0 {
			h.releaseSlots(n)
			return n, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// Consuming, unregistered spin, as RecvCtx.
		sn := 0
		if c.notEmpty.SpinWait(&h.rng, func() bool {
			if n := h.h.DequeueBatch(out); n > 0 {
				sn = n
				return true
			}
			return c.closed.Load() && c.sending.Load() == 0
		}) && sn > 0 {
			h.releaseSlots(sn)
			return sn, nil
		}
		w := c.notEmpty.PrepareXfer(unsafe.Pointer(&h.rcell))
		if !c.core.Empty() || (c.closed.Load() && c.sending.Load() == 0) {
			if !w.Disarm() {
				<-w.Ready()
				out[0] = h.rcell
				c.notEmpty.Finish(w)
				return 1, nil
			}
			if n := h.h.DequeueBatch(out); n > 0 {
				c.notEmpty.Abort(w)
				h.releaseSlots(n)
				return n, nil
			}
			if c.closed.Load() && c.sending.Load() == 0 {
				if n := h.h.DequeueBatch(out); n > 0 {
					c.notEmpty.Abort(w)
					h.releaseSlots(n)
					return n, nil
				}
				c.notEmpty.Abort(w)
				c.notEmpty.WakeAll()
				c.met.Inc(metrics.CloseDrain)
				return 0, ErrClosed
			}
			c.notEmpty.Abort(w)
			continue
		}
		select {
		case <-w.Ready():
			done := w.Done()
			if done {
				out[0] = h.rcell
			}
			c.notEmpty.Finish(w)
			if done {
				return 1, nil
			}
		case <-ctx.Done():
			if c.notEmpty.Abort(w) {
				out[0] = h.rcell
				return 1, nil
			}
			return 0, ctx.Err()
		}
	}
}

// RecvCtx is Recv bounded by ctx: it returns ctx.Err() if the
// context expires while the buffer is still empty.
//
// Direct handoff (chan_handoff.go) shapes the wait. The spin phases
// run BEFORE registration and consume from the ring: a receiver that
// keeps up with producers resolves on the wait-free ring and never
// touches the notEmpty mutex, so the fast majority pays handoff
// nothing. Only a receiver whose
// spin budget expires registers — with PrepareXfer, so it is claimable
// from the moment it is listed: through the registered re-checks below
// (the "spin phase" of the registration) and through the park itself.
// A sender that finds it delivers straight into the transfer cell,
// skipping the ring and the dequeue after the wake. The invariant that
// keeps exactly-once: an armed receiver never touches the ring without
// first winning Disarm — a lost Disarm means a claimer owns the
// registration, and its token and cell value must be consumed.
func (h *ChanHandle[T]) RecvCtx(ctx context.Context) (T, error) {
	c := h.c
	var zero T
	for {
		if v, ok := h.h.Dequeue(); ok {
			h.releaseSlot()
			return v, nil
		}
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		// Phases 1-2: spin-then-yield, consuming, unregistered. A hit
		// on the closed-and-drained arm (got stays false) falls through
		// to the registered check below.
		var sv T
		got := false
		if c.notEmpty.SpinWait(&h.rng, func() bool {
			if v, ok := h.h.Dequeue(); ok {
				sv, got = v, true
				return true
			}
			return c.closed.Load() && c.sending.Load() == 0
		}) && got {
			h.releaseSlot()
			return sv, nil
		}
		// Park commit: register claimable. From here until a won Disarm
		// this goroutine may not touch the ring.
		w := c.notEmpty.PrepareXfer(unsafe.Pointer(&h.rcell))
		// Re-check after registering (lost-wakeup protocol): a sender
		// that missed the registration must have enqueued first, which
		// this probe observes.
		if !c.core.Empty() || (c.closed.Load() && c.sending.Load() == 0) {
			if !w.Disarm() {
				// Lost the race to a claimer: the handoff owns this
				// registration now.
				<-w.Ready()
				v := h.rcell
				c.notEmpty.Finish(w)
				return v, nil
			}
			// Disarmed: exclusive use of the cell again, safe to touch
			// the ring.
			if v, ok := h.h.Dequeue(); ok {
				c.notEmpty.Abort(w)
				h.releaseSlot()
				return v, nil
			}
			if c.closed.Load() && c.sending.Load() == 0 {
				// Final re-check: with the in-flight counter at zero
				// after close, every completed send's value is visible.
				if v, ok := h.h.Dequeue(); ok {
					c.notEmpty.Abort(w)
					h.releaseSlot()
					return v, nil
				}
				c.notEmpty.Abort(w)
				// Nudge any sibling still parked so it re-evaluates the
				// drained state too.
				c.notEmpty.WakeAll()
				c.met.Inc(metrics.CloseDrain)
				return zero, ErrClosed
			}
			// The ring emptied again between the probe and the dequeue;
			// retire this registration and re-arm fresh.
			c.notEmpty.Abort(w)
			continue
		}
		select {
		case <-w.Ready():
			// Done before Finish: Finish recycles the waiter and resets
			// its transfer state.
			done := w.Done()
			var v T
			if done {
				v = h.rcell
			}
			c.notEmpty.Finish(w)
			if done {
				return v, nil
			}
			// Plain (possibly forwarded) wake: loop and re-check.
		case <-ctx.Done():
			if c.notEmpty.Abort(w) {
				// The handoff landed before the abort: the value counts
				// as delivered, exactly once — return it, not the error.
				return h.rcell, nil
			}
			return zero, ctx.Err()
		}
	}
}
