package wfqueue

import (
	"context"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/park"
)

// Direct handoff: the rendezvous fast path that skips the ring when a
// waiter is already parked (see ARCHITECTURE.md, "Direct handoff").
//
// Receiver side: a blocking receive that outlasts its (unregistered,
// ring-consuming) spin budget registers on notEmpty with an armed
// transfer cell (ChanHandle rcell) at park commit, and stays claimable
// from that moment — through its registered re-checks and through the
// park. A sender that finds the queue verifiably empty — the backend's
// one-sided Empty probe, the linearization point that keeps
// per-producer FIFO intact — claims the oldest armed receiver, writes
// its value straight into the cell, and wakes it. The value never
// touches the ring, and the woken receiver returns without dequeuing.
//
// Sender side (takeover): a blocking send on a single-ring bounded
// backend arms its pending value (scell) at park-commit time. A
// receiver that frees a slot claims the oldest armed sender and
// enqueues the pending value on its behalf, so the woken sender
// returns immediately instead of re-running its retry loop. The
// sharded backend is excluded — the receiver's handle would enqueue
// into the wrong home shard, breaking per-handle FIFO — and unbounded
// backends never park senders.
//
// Exactly-once in both directions rests on park's claim protocol: the
// armed→claimed CAS races one-shot against the owner's Disarm, and
// Abort reports a landed handoff so a cancelling owner consumes the
// value instead of dropping it.

// armSend publishes v as this handle's pending takeover value and arms
// the parked registration. Called only at park commit (after the
// registered re-checks), once per registration.
//
//wfq:noalloc
func (h *ChanHandle[T]) armSend(w *park.Waiter, v T) {
	h.scell = v
	w.Arm(unsafe.Pointer(&h.scell))
}

// tryHandoff attempts to deliver v straight to a parked receiver. It
// succeeds only when the queue is verifiably empty at the attempt —
// handing v over while older values sit buffered would reorder this
// producer's stream — and a claimable receiver exists. On success the
// receiver has been woken with v in its cell; the caller owes no
// notEmpty signal.
//
//wfq:noalloc
func (h *ChanHandle[T]) tryHandoff(v T) bool {
	c := h.c
	if !c.handoff || c.notEmpty.Waiters() == 0 {
		return false
	}
	if !c.core.Empty() {
		// Buffered values exist: the parked receivers are about to be
		// satisfied from the ring (or are mid-registration); delivering
		// v around them would break FIFO. Not a miss — no rendezvous is
		// attempted when FIFO forbids one.
		return false
	}
	w, cell := c.notEmpty.Claim()
	if w == nil {
		c.met.Inc(metrics.HandoffMiss)
		return false
	}
	*(*T)(cell) = v
	c.notEmpty.Deliver(w)
	c.met.Inc(metrics.HandoffSend)
	return true
}

// releaseSlot signals capacity after this handle dequeued one value:
// on takeover backends it first tries to spend the freed slot on a
// parked sender directly (see releaseSlots); otherwise it falls back
// to the plain notFull wake.
//
//wfq:noalloc
func (h *ChanHandle[T]) releaseSlot() { h.releaseSlots(1) }

// releaseSlots signals capacity after this handle dequeued n values.
// On takeover backends it claims up to n parked senders and enqueues
// each one's pending value on its behalf: the sender wakes already
// satisfied (it signals notEmpty for the value it now knows is
// buffered — see finishSend), skipping its whole retry loop. A slot
// the enqueue cannot win back (racing producers took it) downgrades to
// a plain wake of that sender. Remaining slots wake senders normally.
//
//wfq:noalloc
func (h *ChanHandle[T]) releaseSlots(n int) {
	c := h.c
	if c.takeover {
		for n > 0 && c.notFull.Waiters() != 0 {
			w, cell := c.notFull.Claim()
			if w == nil {
				break
			}
			if h.h.Enqueue(*(*T)(cell)) {
				c.notFull.Deliver(w)
				c.met.Inc(metrics.HandoffRecv)
			} else {
				c.met.Inc(metrics.HandoffMiss)
				c.notFull.DeliverWake(w)
			}
			n--
		}
	}
	if n > 0 {
		c.wakeNotFullN(n)
	}
}

// recvCtxHandoff is the blocking receive with the rendezvous fast
// path. The spin phases run BEFORE registration with the ring path's
// consuming condition: a receiver that keeps up with producers
// resolves on the wait-free ring and never touches the notEmpty mutex,
// so the fast majority pays handoff nothing. Only a receiver whose
// spin budget expires registers — with PrepareXfer, so it is claimable
// from the moment it is listed: through the registered re-checks below
// (the "spin phase" of the registration) and through the park itself.
// A sender that finds it delivers straight into the transfer cell,
// skipping the ring and the dequeue after the wake. The invariant that
// keeps exactly-once: an armed receiver never touches the ring without
// first winning Disarm — a lost Disarm means a claimer owns the
// registration, and its token and cell value must be consumed.
func (h *ChanHandle[T]) recvCtxHandoff(ctx context.Context) (T, error) {
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
		// Phases 1-2: spin-then-yield, consuming, unregistered — the
		// same as the ring path. A hit on the closed-and-drained arm
		// (got stays false) falls through to the registered check below.
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
				// Final re-check, as the ring path.
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

// recvManyCtxHandoff is recvCtxHandoff's batch shape: the ring path
// drains a prefix of out as before, while a landed handoff satisfies
// the "at least one value" contract with out[0] (the claim protocol
// transfers exactly one value per registration). The caller has
// already rejected len(out) == 0.
func (h *ChanHandle[T]) recvManyCtxHandoff(ctx context.Context, out []T) (int, error) {
	c := h.c
	for {
		if n := h.h.DequeueBatch(out); n > 0 {
			h.releaseSlots(n)
			return n, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// Consuming, unregistered spin, as recvCtxHandoff.
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
