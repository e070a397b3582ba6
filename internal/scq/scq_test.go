package scq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/atomicx"
)

func TestNewRingRejectsBadCapacity(t *testing.T) {
	for _, c := range []uint64{0, 1, 3, 6, 100} {
		if _, err := NewRing(c, atomicx.NativeFAA); err == nil {
			t.Errorf("capacity %d: expected error", c)
		}
	}
	if _, err := NewRing(8, atomicx.NativeFAA); err != nil {
		t.Errorf("capacity 8: unexpected error %v", err)
	}
}

func TestRingSequentialFIFO(t *testing.T) {
	q, _ := NewRing(8, atomicx.NativeFAA)
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue on empty ring succeeded")
	}
	for i := uint64(0); i < 8; i++ {
		q.Enqueue(i)
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d: got (%d,%v), want (%d,true)", i, v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue after drain succeeded")
	}
}

func TestRingWrapAround(t *testing.T) {
	q, _ := NewRing(4, atomicx.NativeFAA)
	// Push the ring through many full cycles.
	for round := uint64(0); round < 1000; round++ {
		for i := uint64(0); i < 4; i++ {
			q.Enqueue((round + i) % 4)
		}
		for i := uint64(0); i < 4; i++ {
			v, ok := q.Dequeue()
			if !ok || v != (round+i)%4 {
				t.Fatalf("round %d: got (%d,%v)", round, v, ok)
			}
		}
	}
}

func TestRingInterleaved(t *testing.T) {
	q, _ := NewRing(16, atomicx.NativeFAA)
	next := uint64(0)
	exp := uint64(0)
	for i := 0; i < 5000; i++ {
		q.Enqueue(next % 16)
		next++
		if i%3 == 0 {
			v, ok := q.Dequeue()
			if !ok || v != exp%16 {
				t.Fatalf("step %d: got (%d,%v), want %d", i, v, ok, exp%16)
			}
			exp++
		}
		if next-exp >= 16 { // never exceed capacity in this test
			v, ok := q.Dequeue()
			if !ok || v != exp%16 {
				t.Fatalf("drain at %d: got (%d,%v)", i, v, ok)
			}
			exp++
		}
	}
}

func TestNewFullRing(t *testing.T) {
	q, err := NewFullRing(8, atomicx.NativeFAA)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("full ring held more than capacity")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	q, _ := NewRing(32, atomicx.NativeFAA)
	f := func(cycle uint32, safe bool, idx uint8) bool {
		c := uint64(cycle)
		s := uint64(0)
		if safe {
			s = 1
		}
		i := uint64(idx) & q.idxMask
		gc, gs, gi := q.unpack(q.pack(c, s, i))
		return gc == c && gs == s && gi == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThresholdResetOnEnqueue(t *testing.T) {
	q, _ := NewRing(8, atomicx.NativeFAA)
	if q.threshold.Load() != -1 {
		t.Fatalf("initial threshold %d, want -1", q.threshold.Load())
	}
	q.Enqueue(1)
	if got := q.threshold.Load(); got != q.thresh3 {
		t.Fatalf("threshold after enqueue %d, want %d", got, q.thresh3)
	}
	q.Dequeue()
	// Repeated failed dequeues must drive threshold negative again.
	for i := 0; i < int(q.thresh3)+2; i++ {
		q.Dequeue()
	}
	if q.threshold.Load() >= 0 {
		t.Fatalf("threshold %d after exhausting empty dequeues", q.threshold.Load())
	}
}

func TestEmptyDequeueCheap(t *testing.T) {
	q, _ := NewRing(8, atomicx.NativeFAA)
	q.Enqueue(0)
	q.Dequeue()
	for i := 0; i < 100; i++ {
		q.Dequeue()
	}
	h0 := q.head.Load()
	// Once threshold is negative, empty dequeues must not touch Head.
	for i := 0; i < 100; i++ {
		if _, ok := q.Dequeue(); ok {
			t.Fatal("phantom element")
		}
	}
	if q.head.Load() != h0 {
		t.Fatalf("empty dequeues advanced Head by %d", q.head.Load()-h0)
	}
}

// mpmcRing exercises a Ring with p producers and c consumers moving
// total indices through it, checking that every enqueued ticket comes
// out exactly once.
func mpmcRing(t *testing.T, mode atomicx.Mode, p, c, total int) {
	t.Helper()
	const capacity = 64
	q, _ := NewRing(capacity, mode)
	// Tokens are recycled through a counting semaphore so the ring
	// never holds more than its capacity.
	slots := make(chan struct{}, capacity)
	for i := 0; i < capacity; i++ {
		slots <- struct{}{}
	}
	var produced, consumed [capacity]atomicCounter
	var wg sync.WaitGroup
	perProducer := total / p
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				<-slots
				idx := uint64(i % capacity)
				produced[idx].add(1)
				q.Enqueue(idx)
			}
		}()
	}
	var consumedTotal atomicCounter
	want := int64(p * perProducer)
	for g := 0; g < c; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if consumedTotal.load() >= want {
					return
				}
				idx, ok := q.Dequeue()
				if !ok {
					runtime.Gosched()
					continue
				}
				consumed[idx].add(1)
				consumedTotal.add(1)
				slots <- struct{}{}
			}
		}()
	}
	wg.Wait()
	for i := range produced {
		if produced[i].load() != consumed[i].load() {
			t.Errorf("index %d: produced %d consumed %d", i, produced[i].load(), consumed[i].load())
		}
	}
}

func TestRingMPMC(t *testing.T) {
	for _, mode := range []atomicx.Mode{atomicx.NativeFAA, atomicx.EmulatedFAA} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			mpmcRing(t, mode, 4, 4, 20000)
		})
	}
}

func TestQueueFullEmptyCycles(t *testing.T) {
	nq, _ := NewQueue[int](8, atomicx.NativeFAA)
	q := nq.Register()
	for round := 0; round < 200; round++ {
		for i := 0; i < 8; i++ {
			if !q.Enqueue(round*8 + i) {
				t.Fatalf("round %d: premature full at %d", round, i)
			}
		}
		if q.Enqueue(-1) {
			t.Fatalf("round %d: full not detected", round)
		}
		for i := 0; i < 8; i++ {
			v, ok := q.Dequeue()
			if !ok || v != round*8+i {
				t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, round*8+i)
			}
		}
		if _, ok := q.Dequeue(); ok {
			t.Fatalf("round %d: empty not detected", round)
		}
	}
}

func TestQueueMPMCValues(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 10000
	)
	q, _ := NewQueue[uint64](256, atomicx.NativeFAA)
	var wg sync.WaitGroup
	out := make(chan uint64, producers*perProd)
	var done atomicCounter
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := q.Register()
			for i := 0; i < perProd; i++ {
				v := uint64(g)<<32 | uint64(i)
				for !h.Enqueue(v) {
				}
			}
		}(g)
	}
	for g := 0; g < consumers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := q.Register()
			for {
				if done.load() >= producers*perProd {
					return
				}
				if v, ok := h.Dequeue(); ok {
					out <- v
					done.add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	close(out)
	// Per-producer FIFO: sequence numbers from one producer must arrive
	// in order per consumer... across consumers we only check no loss,
	// no duplication, since interleaving reorders observation.
	seen := make(map[uint64]bool, producers*perProd)
	for v := range out {
		if seen[v] {
			t.Fatalf("duplicate value %x", v)
		}
		seen[v] = true
	}
	if len(seen) != producers*perProd {
		t.Fatalf("got %d values, want %d", len(seen), producers*perProd)
	}
}

func TestFootprintConstant(t *testing.T) {
	q, _ := NewQueue[uint64](64, atomicx.NativeFAA)
	f0 := q.Footprint()
	h := q.Register()
	for i := 0; i < 10000; i++ {
		h.Enqueue(uint64(i))
		h.Dequeue()
	}
	if q.Footprint() != f0 {
		t.Fatalf("footprint changed: %d -> %d", f0, q.Footprint())
	}
}

// atomicCounter is a tiny local alias used by the concurrent tests.
type atomicCounter struct{ v atomic.Int64 }

func (c *atomicCounter) add(d int64) int64 { return c.v.Add(d) }
func (c *atomicCounter) load() int64       { return c.v.Load() }
