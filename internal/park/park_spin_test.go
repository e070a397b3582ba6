package park

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/metrics"
)

// TestStaggeredWakeAllWakesEveryWaiter is the no-lost-wakeup
// regression for the tranched WakeAll: many real parked goroutines, a
// tranche size far smaller than the herd, and every single waiter
// must come back. Run under -race -cpu 2,4 in CI.
func TestStaggeredWakeAllWakesEveryWaiter(t *testing.T) {
	const waiters = 100
	var p Point
	p.tranche = 3
	sink := metrics.New()
	p.SetMetrics(sink)

	var registered, woken sync.WaitGroup
	registered.Add(waiters)
	woken.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			w := NewWaiter()
			p.Prepare(w)
			registered.Done()
			<-w.Ready()
			p.Finish(w)
			woken.Done()
		}()
	}
	registered.Wait()
	for p.Waiters() != waiters {
		// Prepare has returned everywhere, so the count is already
		// there; this is belt and braces against a reordered Done.
		time.Sleep(time.Millisecond)
	}
	p.WakeAll()

	done := make(chan struct{})
	go func() { woken.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("staggered WakeAll lost wakeups: %d still registered", p.Waiters())
	}
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d after WakeAll", p.Waiters())
	}

	snap := sink.Snapshot()
	if got := snap.Counts[metrics.Wake]; got != waiters {
		t.Fatalf("wake count = %d, want %d", got, waiters)
	}
	wantTranches := uint64((waiters + 2) / 3)
	if got := snap.Counts[metrics.WakeTranche]; got != wantTranches {
		t.Fatalf("tranche count = %d, want %d (tranche size 3)", got, wantTranches)
	}
	if snap.Tranches.Count != wantTranches || snap.Tranches.Max != 3 {
		t.Fatalf("tranche-size histogram = count %d max %d, want count %d max 3",
			snap.Tranches.Count, snap.Tranches.Max, wantTranches)
	}
}

// TestWakeAllSingleTrancheFastPath: a herd no larger than the tranche
// is released in one tranche, like the pre-stagger WakeAll.
func TestWakeAllSingleTrancheFastPath(t *testing.T) {
	var p Point
	p.tranche = 8
	sink := metrics.New()
	p.SetMetrics(sink)
	ws := make([]*Waiter, 5)
	for i := range ws {
		ws[i] = NewWaiter()
		p.Prepare(ws[i])
	}
	p.WakeAll()
	for _, w := range ws {
		select {
		case <-w.Ready():
			p.Finish(w)
		case <-time.After(time.Second):
			t.Fatal("waiter not woken")
		}
	}
	snap := sink.Snapshot()
	if got := snap.Counts[metrics.WakeTranche]; got != 1 {
		t.Fatalf("tranche count = %d, want 1", got)
	}
	if snap.Tranches.Max != 5 {
		t.Fatalf("tranche size = %d, want 5", snap.Tranches.Max)
	}
}

// TestSpinWaitHit: a condition that comes true within the spin budget
// returns true, counts a SpinHit, and records the wait duration.
func TestSpinWaitHit(t *testing.T) {
	var p Point
	sink := metrics.New()
	p.SetMetrics(sink)
	rng := backoff.NewRand(1)
	calls := 0
	ok := p.SpinWait(&rng, func() bool { calls++; return calls >= 3 })
	if !ok {
		t.Fatal("SpinWait missed a condition satisfied on the third re-check")
	}
	snap := sink.Snapshot()
	if snap.Counts[metrics.SpinHit] != 1 || snap.Counts[metrics.SpinMiss] != 0 {
		t.Fatalf("hit/miss = %d/%d, want 1/0",
			snap.Counts[metrics.SpinHit], snap.Counts[metrics.SpinMiss])
	}
	if snap.Parked.Count != 1 {
		t.Fatalf("wait histogram count = %d, want 1 (spin hits record)", snap.Parked.Count)
	}
}

// TestSpinWaitMiss: a condition that never comes true exhausts the
// budgets, returns false, and counts a SpinMiss.
func TestSpinWaitMiss(t *testing.T) {
	var p Point
	sink := metrics.New()
	p.SetMetrics(sink)
	rng := backoff.NewRand(1)
	if p.SpinWait(&rng, func() bool { return false }) {
		t.Fatal("SpinWait hit an always-false condition")
	}
	snap := sink.Snapshot()
	if snap.Counts[metrics.SpinMiss] != 1 {
		t.Fatalf("miss count = %d, want 1", snap.Counts[metrics.SpinMiss])
	}
}

// TestSpinWaitParkStrategy: under KindPark, SpinWait is an immediate
// false without evaluating the condition — exactly the pre-adaptive
// wait path, which keeps it an honest gate baseline.
func TestSpinWaitParkStrategy(t *testing.T) {
	var p Point
	p.SetStrategy(backoff.Park())
	sink := metrics.New()
	p.SetMetrics(sink)
	rng := backoff.NewRand(1)
	evaluated := false
	if p.SpinWait(&rng, func() bool { evaluated = true; return true }) {
		t.Fatal("KindPark SpinWait returned true")
	}
	if evaluated {
		t.Fatal("KindPark SpinWait evaluated the condition")
	}
	snap := sink.Snapshot()
	if snap.Counts[metrics.SpinHit]+snap.Counts[metrics.SpinMiss] != 0 {
		t.Fatal("KindPark SpinWait recorded spin outcomes")
	}
}

// TestSpinWaitAdaptiveCollapsesAndProbes: persistent misses drive the
// budget to zero (SpinWait stops evaluating cond except for probes),
// then persistent hits on the probing waits recover it.
func TestSpinWaitAdaptiveCollapsesAndProbes(t *testing.T) {
	var p Point
	rng := backoff.NewRand(1)
	for i := 0; i < 200; i++ {
		p.SpinWait(&rng, func() bool { return false })
	}
	if r := p.SpinHitRate(); r > 0.07 {
		t.Fatalf("hit rate %f after 200 misses, want < 0.07", r)
	}
	// Collapsed: most waits return false without touching cond.
	evaluated := 0
	for i := 0; i < 64; i++ {
		p.SpinWait(&rng, func() bool { evaluated++; return false })
	}
	if evaluated > 64*backoff.ProbeSpins {
		t.Fatalf("collapsed budget still evaluated cond %d times over 64 waits", evaluated)
	}
	// Probes observe hits and the rate recovers.
	for i := 0; i < 2000; i++ {
		if p.SpinWait(&rng, func() bool { return true }) && p.SpinHitRate() > 0.5 {
			return
		}
	}
	t.Fatalf("hit rate %f never recovered via probes", p.SpinHitRate())
}

// TestSpinWaitConcurrent exercises SpinWait racing real wakes and
// parks (race-detector food): producers flip an atomic flag, waiters
// spin-then-park on it.
func TestSpinWaitConcurrent(t *testing.T) {
	var p Point
	var flag atomic.Int64
	var wg sync.WaitGroup
	const rounds = 200
	wg.Add(2)
	go func() { // consumer
		defer wg.Done()
		rng := backoff.NewRand(7)
		w := NewWaiter()
		for i := 0; i < rounds; i++ {
			for {
				if flag.Load() > 0 {
					flag.Add(-1)
					break
				}
				if p.SpinWait(&rng, func() bool { return flag.Load() > 0 }) {
					continue
				}
				p.Prepare(w)
				if flag.Load() > 0 {
					p.Abort(w)
					continue
				}
				<-w.Ready()
				p.Finish(w)
			}
		}
	}()
	go func() { // producer
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			flag.Add(1)
			p.Wake(1)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("spin/park handoff deadlocked")
	}
}
