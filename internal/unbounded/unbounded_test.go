package unbounded

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ringcore"
)

type maker func(t *testing.T, ringCap uint64) *Queue[uint64]

func makers() map[string]maker {
	return map[string]maker{
		"LSCQ": func(t *testing.T, rc uint64) *Queue[uint64] {
			q, err := New[uint64](ringcore.KindSCQ, rc, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
		"UWCQ": func(t *testing.T, rc uint64) *Queue[uint64] {
			q, err := New[uint64](ringcore.KindWCQ, rc, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
	}
}

func TestUnboundedSequentialGrowth(t *testing.T) {
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 8)   // tiny rings force frequent ring turnover
			q.SetPoolCap(0) // no recycling: every turnover allocates
			h, err := q.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			const n = 1000
			for i := uint64(0); i < n; i++ {
				if !h.Enqueue(i) {
					t.Fatal("unbounded enqueue reported full")
				}
			}
			if q.RingsAllocated() < int64(n/8) {
				t.Fatalf("only %d rings for %d values in cap-8 rings", q.RingsAllocated(), n)
			}
			for i := uint64(0); i < n; i++ {
				v, ok := h.Dequeue()
				if !ok || v != i {
					t.Fatalf("got (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if _, ok := h.Dequeue(); ok {
				t.Fatal("phantom value after drain")
			}
		})
	}
}

func TestUnboundedInterleavedSmallRings(t *testing.T) {
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 4)
			h, _ := q.Acquire()
			next, exp := uint64(0), uint64(0)
			for round := 0; round < 500; round++ {
				for k := 0; k < 7; k++ { // deliberately > ring cap
					if !h.Enqueue(next) {
						t.Fatal("unbounded enqueue reported full")
					}
					next++
				}
				for k := 0; k < 7; k++ {
					v, ok := h.Dequeue()
					if !ok || v != exp {
						t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, exp)
					}
					exp++
				}
			}
		})
	}
}

func TestUnboundedMPMC(t *testing.T) {
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 16)
			const (
				producers = 3
				consumers = 3
				per       = 4000
			)
			total := producers * per
			var got atomic.Int64
			seen := make([]atomic.Int32, total)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				h, err := q.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(p int, h ringcore.Handle[uint64]) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if !h.Enqueue(uint64(p*per + i)) {
							t.Error("unbounded enqueue reported full")
							return
						}
					}
				}(p, h)
			}
			for c := 0; c < consumers; c++ {
				h, err := q.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(h ringcore.Handle[uint64]) {
					defer wg.Done()
					for got.Load() < int64(total) {
						v, ok := h.Dequeue()
						if !ok {
							runtime.Gosched()
							continue
						}
						seen[v].Add(1)
						got.Add(1)
					}
				}(h)
			}
			wg.Wait()
			for i := range seen {
				if n := seen[i].Load(); n != 1 {
					t.Fatalf("value %d delivered %d times (rings=%d)", i, n, q.RingsAllocated())
				}
			}
		})
	}
}

func TestUnboundedFootprintGrowsWhileBuffered(t *testing.T) {
	q, err := New[uint64](ringcore.KindSCQ, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := q.Acquire()
	f0 := q.Footprint()
	for i := uint64(0); i < 200; i++ {
		h.Enqueue(i) // never dequeue: rings accumulate
	}
	if q.Footprint() <= f0 {
		t.Fatalf("footprint did not grow: %d -> %d", f0, q.Footprint())
	}
	if q.Rings() < 25 {
		t.Fatalf("only %d live rings for 200 buffered values in cap-8 rings", q.Rings())
	}
}

func TestUnboundedPoolRecyclesRings(t *testing.T) {
	// A sequential burst/drain churn must converge on a fixed ring
	// population: after the pool is primed, turnovers reuse rings
	// instead of allocating.
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 8)
			h, err := q.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			next, exp := uint64(0), uint64(0)
			for round := 0; round < 50; round++ {
				for k := 0; k < 24; k++ { // 3 ring turnovers per round
					if !h.Enqueue(next) {
						t.Fatal("unbounded enqueue reported full")
					}
					next++
				}
				for k := 0; k < 24; k++ {
					v, ok := h.Dequeue()
					if !ok || v != exp {
						t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, exp)
					}
					exp++
				}
			}
			if q.RingsRecycled() == 0 {
				t.Fatal("pool never recycled a ring across 50 burst/drain rounds")
			}
			// Sequential churn retires every ring unpinned, so the
			// allocation count must stay near (live + pool), not grow
			// with the ~150 turnovers.
			if q.RingsAllocated() > int64(DefaultPoolRings)+5 {
				t.Fatalf("allocated %d rings across recycled churn (recycled %d)",
					q.RingsAllocated(), q.RingsRecycled())
			}
		})
	}
}

func TestUnboundedFootprintBoundedAfterDrain(t *testing.T) {
	// The paper's bounded-memory claim under churn: once a burst
	// drains, retained memory is capped by (1 live + pool) rings.
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 8)
			h, err := q.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			perRing := q.Footprint() // exactly one live ring at rest
			for i := uint64(0); i < 2000; i++ {
				if !h.Enqueue(i) {
					t.Fatal("unbounded enqueue reported full")
				}
			}
			peak := q.Footprint()
			if peak < 100*perRing {
				t.Fatalf("peak %d B did not reflect the burst (ring %d B)", peak, perRing)
			}
			for i := uint64(0); i < 2000; i++ {
				if _, ok := h.Dequeue(); !ok {
					t.Fatalf("drain at %d: empty", i)
				}
			}
			if got, limit := q.Footprint(), uint64(DefaultPoolRings+1)*perRing; got > limit {
				t.Fatalf("retained %d B after drain, want <= %d (pool %d rings)",
					got, limit, q.Pooled())
			}
		})
	}
}

func TestUnboundedPerProducerFIFOAcrossRings(t *testing.T) {
	// One producer, one consumer, ring turnover in the middle: strict
	// order must survive ring boundaries (and ring recycling).
	q, err := New[uint64](ringcore.KindWCQ, 4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp, _ := q.Acquire()
	hc, _ := q.Acquire()
	const n = 5000
	done := make(chan error, 1)
	go func() {
		next := uint64(0)
		for next < n {
			v, ok := hc.Dequeue()
			if !ok {
				runtime.Gosched()
				continue
			}
			if v != next {
				done <- errOrder{v, next}
				return
			}
			next++
		}
		done <- nil
	}()
	for i := uint64(0); i < n; i++ {
		if !hp.Enqueue(i) {
			t.Fatal("unbounded enqueue reported full")
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestUWCQHandleCensus(t *testing.T) {
	q, err := New[uint64](ringcore.KindWCQ, 8, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire(); err == nil {
		t.Fatal("third handle accepted with maxThreads 2")
	}
}

type errOrder struct{ got, want uint64 }

func (e errOrder) Error() string { return "out of order" }

func TestKindAccessorsAndCore(t *testing.T) {
	q, err := New[uint64](ringcore.KindSCQ, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind() != ringcore.KindSCQ {
		t.Fatalf("Kind() = %v", q.Kind())
	}
	var core ringcore.Core[uint64] = q // *Queue is a Core itself
	if core.Cap() != 0 || core.Kind() != ringcore.KindSCQ {
		t.Fatalf("core: cap=%d kind=%v", core.Cap(), core.Kind())
	}
	h, err := core.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Through the Core contract: never full, sealed ops are plain
	// enqueues, batches always absorbed.
	if !h.Enqueue(1) || !h.EnqueueSealed(2) {
		t.Fatal("unbounded core reported full")
	}
	if n := h.EnqueueSealedBatch([]uint64{3, 4, 5}); n != 3 {
		t.Fatalf("EnqueueSealedBatch = %d, want 3", n)
	}
	out := make([]uint64, 8)
	if n := h.DequeueBatch(out); n != 5 {
		t.Fatalf("DequeueBatch = %d, want 5", n)
	}
	for i, want := range []uint64{1, 2, 3, 4, 5} {
		if out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("phantom value after drain")
	}
}
