package payload_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"repro/internal/atomicx"
	"repro/internal/payload"
	"repro/internal/scq"
	"repro/internal/wcq"
)

// handle is the operating surface both cores' payload handles share.
type handle[T any] interface {
	Enqueue(v T) bool
	Dequeue() (T, bool)
	EnqueueBatch(vs []T) int
	DequeueBatch(out []T) int
	EnqueueSealed(v T) bool
	EnqueueSealedBatch(vs []T) int
}

// fixture is one payload queue under test, built over either core.
type fixture[T any] struct {
	*payload.Queue[T]
	register func() handle[T]
	// rings is the footprint of the queue's two index rings alone.
	rings uint64
}

// cores names the index-ring cores every test runs over.
var cores = []string{"wCQ", "SCQ"}

// build returns a payload queue of the given core holding capacity
// values, registrable by up to threads handles.
func build[T any](t testing.TB, core string, capacity uint64, threads int) fixture[T] {
	t.Helper()
	switch core {
	case "wCQ":
		q, err := wcq.NewQueue[T](capacity, threads, nil)
		if err != nil {
			t.Fatal(err)
		}
		aq, _ := wcq.NewRing(capacity, threads, nil)
		fq, _ := wcq.NewFullRing(capacity, threads, nil)
		return fixture[T]{q.Queue, func() handle[T] {
			h, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			return h
		}, aq.Footprint() + fq.Footprint()}
	case "SCQ":
		q, err := scq.NewQueue[T](capacity, atomicx.NativeFAA)
		if err != nil {
			t.Fatal(err)
		}
		aq, _ := scq.NewRing(capacity, atomicx.NativeFAA)
		fq, _ := scq.NewFullRing(capacity, atomicx.NativeFAA)
		return fixture[T]{q.Queue, func() handle[T] { return q.Register() }, aq.Footprint() + fq.Footprint()}
	}
	t.Fatalf("unknown core %q", core)
	return fixture[T]{}
}

func TestSequential(t *testing.T) {
	for _, core := range cores {
		t.Run(core, func(t *testing.T) {
			q := build[string](t, core, 4, 2)
			h := q.register()
			if _, ok := h.Dequeue(); ok {
				t.Fatal("empty queue returned a value")
			}
			for _, s := range []string{"a", "b", "c", "d"} {
				if !h.Enqueue(s) {
					t.Fatalf("enqueue %q failed", s)
				}
			}
			if h.Enqueue("x") {
				t.Fatal("enqueue beyond capacity succeeded")
			}
			for _, want := range []string{"a", "b", "c", "d"} {
				if v, ok := h.Dequeue(); !ok || v != want {
					t.Fatalf("got (%q,%v), want %q", v, ok, want)
				}
			}
		})
	}
}

// blob is large enough to bypass the tiny allocator, so a weak pointer
// to one clears as soon as the blob itself is unreachable.
type blob struct{ _ [64]byte }

// passThrough sends a fresh blob through the queue with the scalar or
// batch operations and returns a weak pointer to it; every strong
// reference outside the queue is gone once it returns.
//
//go:noinline
func passThrough(t *testing.T, h handle[*blob], batch bool) weak.Pointer[blob] {
	b := new(blob)
	w := weak.Make(b)
	if batch {
		out := []*blob{nil}
		if h.EnqueueBatch([]*blob{b}) != 1 || h.DequeueBatch(out) != 1 || out[0] != b {
			t.Fatal("batch round trip failed")
		}
	} else if !h.Enqueue(b) {
		t.Fatal("enqueue failed")
	} else if v, ok := h.Dequeue(); !ok || v != b {
		t.Fatal("dequeue failed")
	}
	return w
}

// TestReleasesReferences checks that a dequeued value is no longer
// reachable from the data array (GC hygiene), after both Dequeue and
// DequeueBatch.
func TestReleasesReferences(t *testing.T) {
	for _, core := range cores {
		for _, batch := range []bool{false, true} {
			name := core + "/scalar"
			if batch {
				name = core + "/batch"
			}
			t.Run(name, func(t *testing.T) {
				q := build[*blob](t, core, 4, 1)
				w := passThrough(t, q.register(), batch)
				runtime.GC()
				if w.Value() != nil {
					t.Fatal("payload slot retains a pointer after dequeue")
				}
				runtime.KeepAlive(q) // the data array must outlive the GC above
			})
		}
	}
}

// TestSealDrainReset walks the unbounded construction's ring
// lifecycle: open, sealed with a value pending, drained, reopened.
func TestSealDrainReset(t *testing.T) {
	for _, core := range cores {
		t.Run(core, func(t *testing.T) {
			q := build[uint64](t, core, 8, 2)
			h := q.register()
			if q.Drained() {
				t.Fatal("unsealed queue reported drained")
			}
			if !h.EnqueueSealed(1) {
				t.Fatal("enqueue before seal failed")
			}
			q.Seal()
			if h.EnqueueSealed(2) || h.EnqueueSealedBatch([]uint64{3, 4}) != 0 {
				t.Fatal("enqueue after seal succeeded")
			}
			if q.Drained() {
				t.Fatal("sealed queue with a pending value reported drained")
			}
			if v, ok := h.Dequeue(); !ok || v != 1 {
				t.Fatalf("got (%d,%v), want 1", v, ok)
			}
			if !q.Drained() || !q.Empty() {
				t.Fatal("sealed empty queue not drained")
			}
			q.Reset()
			if q.Drained() {
				t.Fatal("reset queue reported drained")
			}
			if !h.EnqueueSealed(5) || h.EnqueueSealedBatch([]uint64{6, 7}) != 2 {
				t.Fatal("enqueue after reset failed")
			}
			out := make([]uint64, 4)
			if n := h.DequeueBatch(out); n != 3 || out[0] != 5 || out[2] != 7 {
				t.Fatalf("after reset: DequeueBatch = %d %v, want 3 [5 6 7]", n, out[:n])
			}
		})
	}
}

// TestSealConcurrentNoLoss seals mid-stream while producers enqueue
// (scalar and batch) and a consumer drains: every value a sealed
// enqueue accepted must come out exactly once; values rejected are the
// caller's to keep.
func TestSealConcurrentNoLoss(t *testing.T) {
	const producers = 4
	const per = 3000
	for _, core := range cores {
		t.Run(core, func(t *testing.T) {
			q := build[uint64](t, core, 64, producers+1)
			hd := q.register()
			var wg sync.WaitGroup
			accepted := make([][]uint64, producers)
			for p := 0; p < producers; p++ {
				h := q.register()
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i += 2 {
						v := uint64(p*per + i)
						pair := []uint64{v, v + 1}
						n := 0
						if p%2 == 0 {
							for n < 2 && h.EnqueueSealed(pair[n]) {
								n++
							}
						} else {
							n = h.EnqueueSealedBatch(pair)
						}
						accepted[p] = append(accepted[p], pair[:n]...)
						if i%64 == 0 {
							runtime.Gosched()
						}
					}
				}(p)
			}
			got := map[uint64]bool{}
			var taken atomic.Int64
			take := func(v uint64) {
				if got[v] {
					t.Errorf("duplicate %d", v)
				}
				got[v] = true
				taken.Add(1)
			}
			stop := make(chan struct{})
			var dwg sync.WaitGroup
			dwg.Add(1)
			go func() {
				defer dwg.Done()
				for {
					if v, ok := hd.Dequeue(); ok {
						take(v)
						continue
					}
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}()
			// Seal mid-stream: once a share of the values has flowed,
			// or when the producers are already done.
			producersDone := make(chan struct{})
			go func() { wg.Wait(); close(producersDone) }()
		flow:
			for taken.Load() < producers*per/8 {
				select {
				case <-producersDone:
					break flow
				default:
					runtime.Gosched()
				}
			}
			q.Seal()
			<-producersDone
			for !q.Drained() {
				runtime.Gosched()
			}
			close(stop)
			dwg.Wait()
			// Final sweep for anything between the drainer's last miss
			// and stop.
			for v, ok := hd.Dequeue(); ok; v, ok = hd.Dequeue() {
				take(v)
			}
			total := 0
			for p := range accepted {
				total += len(accepted[p])
				for _, v := range accepted[p] {
					if !got[v] {
						t.Fatalf("accepted value %d lost after seal", v)
					}
				}
			}
			if len(got) != total {
				t.Fatalf("dequeued %d values, producers recorded %d accepted", len(got), total)
			}
		})
	}
}

// TestBatchClampedToCap passes batches four times the capacity: at most
// Cap values move per call, and the index scratch stops growing at Cap,
// so after warm-up the batch path allocates nothing.
func TestBatchClampedToCap(t *testing.T) {
	const capacity = 16
	for _, core := range cores {
		t.Run(core, func(t *testing.T) {
			q := build[uint64](t, core, capacity, 1)
			h := q.register()
			vs := make([]uint64, 4*capacity)
			out := make([]uint64, 4*capacity)
			for i := range vs {
				vs[i] = uint64(i)
			}
			if n := h.EnqueueBatch(vs); n != capacity {
				t.Fatalf("EnqueueBatch(4*Cap) = %d, want %d", n, capacity)
			}
			if n := h.DequeueBatch(out); n != capacity || out[capacity-1] != capacity-1 {
				t.Fatalf("DequeueBatch(4*Cap) = %d, want %d in order", n, capacity)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if h.EnqueueBatch(vs) > int(q.Cap()) || h.DequeueBatch(out) > int(q.Cap()) {
					t.Fatal("batch moved more than Cap values")
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state 4*Cap batches allocate %v times per run", allocs)
			}
		})
	}
}

// TestFootprintCountsElementSize checks that the data array counts at
// the element type's size, not a fixed 8 bytes per slot.
func TestFootprintCountsElementSize(t *testing.T) {
	const capacity = 64
	for _, core := range cores {
		t.Run(core, func(t *testing.T) {
			q := build[[4]uint64](t, core, capacity, 2)
			if got, want := q.Footprint(), q.rings+capacity*32; got != want {
				t.Fatalf("Footprint() = %d, want rings %d + %d*32 = %d", got, q.rings, capacity, want)
			}
		})
	}
}
