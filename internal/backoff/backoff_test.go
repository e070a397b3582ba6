package backoff

import (
	"testing"
	"time"
)

// TestFullJitterBounds: every draw stays within [base, cap] across
// attempts, including the degenerate and overflow-prone corners.
func TestFullJitterBounds(t *testing.T) {
	cases := []struct{ base, cap time.Duration }{
		{time.Microsecond, 128 * time.Microsecond},
		{time.Nanosecond, time.Nanosecond},   // base == cap
		{time.Millisecond, time.Microsecond}, // cap < base: clamped up
		{0, 50 * time.Microsecond},           // base defaulted
		{time.Microsecond, 1 << 62},          // huge cap: shift overflow guard
	}
	for _, c := range cases {
		r := NewRand(1)
		base, cap := clampBounds(c.base, c.cap)
		for attempt := 0; attempt < 70; attempt++ {
			for i := 0; i < 200; i++ {
				d := FullJitter(&r, c.base, c.cap, attempt)
				if d < base || d > cap {
					t.Fatalf("FullJitter(base=%v cap=%v attempt=%d) = %v outside [%v, %v]",
						c.base, c.cap, attempt, d, base, cap)
				}
			}
		}
		if d := FullJitter(&r, c.base, c.cap, 0); d != base {
			t.Fatalf("FullJitter attempt 0 = %v, want base %v", d, base)
		}
	}
}

// TestSeededStreamsDeterministic: the same seed replays the identical
// value and jitter sequences; different seeds diverge.
func TestSeededStreamsDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("same-seed streams diverged at step %d: %d != %d", i, x, y)
		}
	}
	a, b = NewRand(42), NewRand(42)
	base, cap := time.Microsecond, 256*time.Microsecond
	for i := 0; i < 1000; i++ {
		if x, y := FullJitter(&a, base, cap, i%20), FullJitter(&b, base, cap, i%20); x != y {
			t.Fatalf("same-seed FullJitter diverged at step %d: %v != %v", i, x, y)
		}
	}
	c, d := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Next() == d.Next() {
			same++
		}
	}
	if same == 100 {
		t.Fatal("distinct seeds produced identical streams")
	}
}

// TestZeroRandUsable: the zero Rand self-seeds instead of sticking at
// xorshift's zero fixed point.
func TestZeroRandUsable(t *testing.T) {
	var r Rand
	if r.Next() == 0 && r.Next() == 0 {
		t.Fatal("zero Rand stuck at zero")
	}
}

// observe feeds n observations with exactly hits of them hits, spread
// round-robin so every prefix has roughly the target rate.
func observe(e *EWMA, n, hits int) {
	acc := 0
	for i := 0; i < n; i++ {
		acc += hits
		hit := acc >= n
		if hit {
			acc -= n
		}
		e.Observe(hit)
	}
}

// TestEWMABudgetMonotone: after streams of increasing hit rate, both
// the rate estimate and the spin budget are nondecreasing, the
// endpoints behave (all-miss → budget 0, all-hit → full budget), and
// budgets never leave [0, maxSpin].
func TestEWMABudgetMonotone(t *testing.T) {
	const maxSpin = MaxSpin
	rates := []int{0, 10, 25, 50, 75, 90, 100}
	var prevRate float64 = -1
	prevBudget := -1
	for _, pct := range rates {
		var e EWMA
		observe(&e, 1000, pct*10)
		r, b := e.Rate(), e.Budget(maxSpin)
		if b < 0 || b > maxSpin {
			t.Fatalf("budget %d outside [0, %d] at %d%% hits", b, maxSpin, pct)
		}
		if r < prevRate {
			t.Fatalf("rate not monotone: %f at %d%% hits after %f", r, pct, prevRate)
		}
		if b < prevBudget {
			t.Fatalf("budget not monotone: %d at %d%% hits after %d", b, pct, prevBudget)
		}
		prevRate, prevBudget = r, b
	}
	var miss EWMA
	observe(&miss, 1000, 0)
	if b := miss.Budget(maxSpin); b != 0 {
		t.Fatalf("all-miss budget = %d, want 0", b)
	}
	var hit EWMA
	observe(&hit, 1000, 1000)
	if b := hit.Budget(maxSpin); b < maxSpin*9/10 {
		t.Fatalf("all-hit budget = %d, want ~%d", b, maxSpin)
	}
}

// TestEWMAZeroValueOptimistic: a fresh EWMA grants roughly half the
// budget, so new park points get a real spin phase before any
// evidence accumulates.
func TestEWMAZeroValueOptimistic(t *testing.T) {
	var e EWMA
	if r := e.Rate(); r < 0.45 || r > 0.55 {
		t.Fatalf("zero-value rate = %f, want ~0.5", r)
	}
	if b := e.Budget(MaxSpin); b < MaxSpin/3 || b > MaxSpin {
		t.Fatalf("zero-value budget = %d, want ~%d", b, MaxSpin/2)
	}
}

// TestEWMADecayCollapses: Decay is the Pyrrhic-hit response — it must
// collapse the budget within two observations from the optimistic
// prior (where plain misses take ~16 EWMA steps), and the estimate
// must stay recoverable through ordinary hits afterwards.
func TestEWMADecayCollapses(t *testing.T) {
	var e EWMA
	e.Decay()
	e.Decay()
	if b := e.Budget(MaxSpin); b != 0 {
		t.Fatalf("budget after two decays = %d, want 0 (rate %f)", b, e.Rate())
	}
	var slow EWMA
	observe(&slow, 16, 0)
	if slow.Budget(MaxSpin) != 0 {
		t.Fatalf("16 misses left budget %d; decay must not be slower than this path", slow.Budget(MaxSpin))
	}
	observe(&e, 40, 40)
	if b := e.Budget(MaxSpin); b == 0 {
		t.Fatalf("budget did not recover from collapse under all-hit observations (rate %f)", e.Rate())
	}
}

// TestStrategyByName: the flag vocabulary round-trips, nil defaults
// to adaptive, and unknown names error.
func TestStrategyByName(t *testing.T) {
	for _, name := range []string{"adaptive", "park"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if s, err := ByName(""); err != nil || s.Name() != "adaptive" {
		t.Fatalf("ByName(\"\") = %v, %v; want adaptive", s, err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName(bogus) succeeded")
	}
	var nilStrat *Strategy
	if nilStrat.Name() != "adaptive" {
		t.Fatalf("nil strategy Name() = %q, want adaptive", nilStrat.Name())
	}
	if nilStrat.Mode() != KindAdaptive {
		t.Fatal("nil strategy Mode() != KindAdaptive")
	}
}

// TestBackoffEscalation: the iterator spins for MaxSpin waits,
// yields for MaxYields more, sleeps after that, and Reset drops it
// back to the free spin level. Timing the spin level would be flaky;
// instead the sleep level is detected by elapsed wall clock.
func TestBackoffEscalation(t *testing.T) {
	b := New(1)
	t0 := time.Now()
	for i := 0; i < MaxSpin+MaxYields; i++ { // no sleeping yet
		b.Wait()
	}
	if free := time.Since(t0); free > 500*time.Millisecond {
		t.Fatalf("spin+yield waits took %v; a sleep leaked into the free levels", free)
	}
	t0 = time.Now()
	b.Wait() // first sleeping wait: >= SleepBase
	if slept := time.Since(t0); slept < SleepBase {
		t.Fatalf("sleep-level wait returned after %v, want >= %v", slept, SleepBase)
	}
	b.Reset()
	t0 = time.Now()
	b.Wait() // back at the free spin level
	if free := time.Since(t0); free > 500*time.Millisecond {
		t.Fatalf("post-Reset wait took %v; Reset did not drop the level", free)
	}
}

// TestProbeRate: Probe fires for about 1/16 of draws — enough to keep
// a collapsed budget's EWMA alive, rare enough to stay cheap.
func TestProbeRate(t *testing.T) {
	r := NewRand(3)
	fired := 0
	const n = 1 << 16
	for i := 0; i < n; i++ {
		if Probe(&r) {
			fired++
		}
	}
	if fired < n/32 || fired > n/8 {
		t.Fatalf("Probe fired %d/%d times, want ~%d", fired, n, n/16)
	}
}
