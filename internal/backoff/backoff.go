// Package backoff provides the waiting-side primitives behind the
// blocking facade's adaptive spin-then-park machinery and the
// harness's idle loops: a seeded per-waiter xorshift stream, the
// classic full-jitter sleep draw (clamped to [base, cap]), an EWMA
// spin-budget controller, and an escalating Backoff iterator for poll
// loops that must not burn a core.
//
// Everything here is deterministic under a fixed seed — the property
// tests replay streams — and the spin-path primitives carry
// //wfq:noalloc so the hotalloc analyzer proves they may be called
// from hot paths without voiding the zero-alloc guarantee. Only the
// sleeping phase of Backoff.Wait touches the timer wheel.
package backoff

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Rand is one waiter's private xorshift64 stream: no locks, no shared
// state, deterministic from its seed. The zero value is usable (it
// self-seeds on first Next), so it can live inline in a handle struct.
type Rand struct{ s uint64 }

// seedMix is the odd constant (2^64/phi) used to spread small integer
// seeds across the state space, and the self-seed of a zero Rand.
const seedMix = 0x9e3779b97f4a7c15

// NewRand returns a stream seeded from seed; distinct seeds give
// distinct streams, and a zero seed is replaced so the xorshift state
// never sticks at its one fixed point.
func NewRand(seed uint64) Rand {
	return Rand{s: seed*seedMix + 1}
}

// Next advances the stream (xorshift64) and returns the next value.
//
//wfq:noalloc
func (r *Rand) Next() uint64 {
	x := r.s
	if x == 0 {
		x = seedMix
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.s = x
	return x
}

// Intn returns a value in [0, n); n must be positive. The modulo bias
// is irrelevant at jitter precision.
//
//wfq:noalloc
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// FullJitter is the AWS-style "full jitter" sleep: uniform in
// [base, min(cap, base<<attempt)]. The result is always within
// [base, cap]; attempt 0 yields base exactly.
func FullJitter(r *Rand, base, cap time.Duration, attempt int) time.Duration {
	base, cap = clampBounds(base, cap)
	ceil := expCeil(base, cap, attempt)
	span := int64(ceil - base)
	if span <= 0 {
		return base
	}
	return base + time.Duration(r.Next()%uint64(span+1))
}

// clampBounds normalizes sleep bounds: base must be positive and cap
// at least base.
func clampBounds(base, cap time.Duration) (time.Duration, time.Duration) {
	if base <= 0 {
		base = time.Microsecond
	}
	if cap < base {
		cap = base
	}
	return base, cap
}

// expCeil is min(cap, base<<attempt) with shift-overflow protection.
func expCeil(base, cap time.Duration, attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 62 {
		return cap
	}
	c := base << uint(attempt)
	if c > cap || c < base {
		return cap
	}
	return c
}

// Kind selects a wait strategy for the blocking facade.
type Kind uint8

const (
	// KindAdaptive is the default: a bounded spin whose budget tracks
	// the observed spin-success rate (EWMA over spin-hit/park
	// outcomes), then a short jittered yield phase, then a futex park.
	// Uncontended points converge to pure spin; oversubscribed ones to
	// immediate park.
	KindAdaptive Kind = iota
	// KindPark parks immediately — the pre-adaptive behavior. Under
	// deep oversubscription it keeps the wait tail short where the
	// adaptive kind's yield phase stretches it (figure w1).
	KindPark
)

// Strategy selects the wait mode of the three-phase wait machine. A
// nil *Strategy selects KindAdaptive, so the knob can be threaded
// through option structs unconditionally.
type Strategy struct {
	// Kind picks the wait mode (default KindAdaptive).
	Kind Kind
}

// The wait machine's fixed budgets, stated once for code, tests and
// docs.
const (
	// MaxSpin bounds the phase-1 condition re-checks per wait; the
	// adaptive kind scales its live budget within [0, MaxSpin].
	MaxSpin = 64
	// MaxYields bounds the phase-2 Gosched re-checks per wait; the
	// actual count is jittered in [1, MaxYields].
	MaxYields = 16
	// SleepBase and SleepCap bound the Backoff iterator's jittered
	// sleeps. The park path never sleeps — they exist for poll loops
	// outside the parking lot (the open-loop harness's non-blocking
	// producers and consumers).
	SleepBase = time.Microsecond
	SleepCap  = 128 * time.Microsecond
)

// Adaptive returns the default strategy (explicitly).
func Adaptive() *Strategy { return &Strategy{Kind: KindAdaptive} }

// Park returns the park-immediately strategy (the pre-adaptive
// behavior, and the perf-smoke gate's baseline).
func Park() *Strategy { return &Strategy{Kind: KindPark} }

// ByName resolves a flag value to its strategy; the names are the
// -wait flag vocabulary.
func ByName(name string) (*Strategy, error) {
	switch name {
	case "", "adaptive":
		return Adaptive(), nil
	case "park":
		return Park(), nil
	}
	return nil, fmt.Errorf("backoff: unknown wait strategy %q (have adaptive, park)", name)
}

// Name returns the strategy's flag name; a nil strategy is the
// default "adaptive".
func (s *Strategy) Name() string {
	if s.Mode() == KindPark {
		return "park"
	}
	return "adaptive"
}

// Mode returns the kind, defaulting a nil strategy to KindAdaptive.
//
//wfq:noalloc
func (s *Strategy) Mode() Kind {
	if s == nil {
		return KindAdaptive
	}
	return s.Kind
}

// EWMA tracks a hit rate as a fixed-point exponentially weighted
// moving average, lock-free. The zero value starts at an optimistic
// 1/2 — a fresh wait point earns a real spin phase until the evidence
// says otherwise. Racing observers may each drop an update (plain
// load/CAS, no retry loop); an estimator doesn't care.
type EWMA struct {
	// bits holds rate+1 in ewmaOne fixed point; 0 means "unseeded".
	bits atomic.Uint64
}

const (
	// ewmaOne is fixed-point 1.0.
	ewmaOne = 1 << 16
	// ewmaShift sets alpha = 1/8: ~22 observations to cross from the
	// 0.5 prior to 0.94 under all-hits, a few dozen waits to converge.
	ewmaShift = 3
)

// Observe folds one spin outcome into the rate.
//
//wfq:noalloc
func (e *EWMA) Observe(hit bool) {
	old := e.bits.Load()
	r := old - 1
	if old == 0 {
		r = ewmaOne / 2
	}
	r -= r >> ewmaShift
	if hit {
		r += ewmaOne >> ewmaShift
	}
	e.bits.CompareAndSwap(old, r+1)
}

// Decay quarters the estimate — the response to a Pyrrhic hit, a spin
// that resolved but took longer than a park round-trip would have
// (SpinHitBudget). A miss says spinning is not succeeding; a Pyrrhic
// hit says succeeding is itself unprofitable (the classic symptom of
// an oversubscribed host, where the yield phase only resolves after a
// full scheduler pass), so the estimate drops multiplicatively and
// the budget collapses within two observations instead of ~16 EWMA
// steps.
//
//wfq:noalloc
func (e *EWMA) Decay() {
	old := e.bits.Load()
	r := old - 1
	if old == 0 {
		r = ewmaOne / 2
	}
	e.bits.CompareAndSwap(old, r/4+1)
}

// rateFixed returns the current rate in [0, ewmaOne].
//
//wfq:noalloc
func (e *EWMA) rateFixed() uint64 {
	v := e.bits.Load()
	if v == 0 {
		return ewmaOne / 2
	}
	return v - 1
}

// Rate returns the current hit-rate estimate in [0, 1].
func (e *EWMA) Rate() float64 { return float64(e.rateFixed()) / ewmaOne }

// budgetFloor is the hit rate (ewmaOne fixed point) below which the
// budget collapses to zero: under ~6% of spins succeeding, spinning
// is pure waste and the waiter should park immediately.
const budgetFloor = ewmaOne / 16

// Budget maps the observed hit rate onto a spin budget in
// [0, maxSpin], monotone in the rate: full budget at rate 1, zero
// below budgetFloor.
//
//wfq:noalloc
func (e *EWMA) Budget(maxSpin int) int {
	r := e.rateFixed()
	if r < budgetFloor {
		return 0
	}
	return int(uint64(maxSpin) * r / ewmaOne)
}

// Probe reports whether a zero-budget waiter should spin anyway this
// time (one wait in 16): without occasional probes a point whose
// budget collapsed could never observe that contention has eased, and
// the EWMA would stay pinned at the floor forever.
//
//wfq:noalloc
func Probe(r *Rand) bool { return r.Next()&15 == 0 }

// ProbeSpins is the reduced phase-1 bound a probing wait uses. Probes
// spin only — no yield phase — so a collapsed point samples for eased
// contention without paying (or recording) scheduler-pass latencies.
const ProbeSpins = 8

// SpinHitBudget is the profitability bound on a spin-phase hit: a
// wait that resolves slower than this was slower than parking would
// have been (a futex wake round-trip is single-digit microseconds),
// so the adaptive controller counts it as a Decay rather than a hit.
// Without this bound an oversubscribed host looks like a spin-success
// paradise — yields eventually observe the condition — while every
// "success" costs a full scheduler pass.
const SpinHitBudget = 5 * time.Microsecond

// Backoff is an escalating idle-wait iterator for poll loops outside
// the parking lot (the open-loop harness's non-blocking paths): the
// first MaxSpin Waits are free (pure re-check), the next MaxYields
// yield the processor, and every Wait after that sleeps a full-jitter
// duration within [SleepBase, SleepCap] — so a briefly-blocked loop
// stays hot while a persistent idler stops burning its core. Reset
// after every success.
type Backoff struct {
	rng Rand
	n   int
}

// New returns a Backoff with its own seeded jitter stream.
func New(seed uint64) Backoff {
	return Backoff{rng: NewRand(seed)}
}

// Wait blocks (or doesn't) according to the current escalation level,
// then advances it.
func (b *Backoff) Wait() {
	switch {
	case b.n < MaxSpin:
		// Spin level: the caller's re-check is the work.
	case b.n < MaxSpin+MaxYields:
		runtime.Gosched()
	default:
		time.Sleep(FullJitter(&b.rng, SleepBase, SleepCap, b.n-MaxSpin-MaxYields))
	}
	b.n++
}

// Reset drops the escalation back to the spin level; call it after
// the condition the loop was polling for came true.
func (b *Backoff) Reset() { b.n = 0 }
