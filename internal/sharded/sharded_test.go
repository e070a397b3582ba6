package sharded_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/queueapi"
	"repro/internal/ringcore"
	"repro/internal/sharded"
)

// apiQueue adapts the generic sharded queue to queueapi for the
// checker (the production adapter lives in internal/queues; this one
// keeps the package's own tests self-contained).
type apiQueue struct{ q *sharded.Queue[uint64] }

func (a *apiQueue) Handle() (queueapi.Handle, error) {
	h, err := a.q.Acquire()
	if err != nil {
		return nil, err
	}
	return h, nil
}
func (a *apiQueue) Cap() uint64       { return a.q.Cap() }
func (a *apiQueue) Footprint() uint64 { return a.q.Footprint() }
func (a *apiQueue) Name() string      { return "sharded-test" }

func mustNew(t *testing.T, capacity uint64, threads int, opts *sharded.Options) *sharded.Queue[uint64] {
	t.Helper()
	q, err := sharded.New[uint64](capacity, threads, opts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestConstructionValidation(t *testing.T) {
	cases := []struct {
		name     string
		capacity uint64
		threads  int
		opts     *sharded.Options
	}{
		{"zero shards invalid", 64, 4, &sharded.Options{Shards: -1}},
		{"capacity not divisible", 100, 4, &sharded.Options{Shards: 3}},
		{"per-shard capacity below 2", 4, 4, &sharded.Options{Shards: 4}},
		{"per-shard capacity not power of two", 24, 4, &sharded.Options{Shards: 2}},
		{"zero capacity", 0, 4, nil},
	}
	for _, c := range cases {
		if _, err := sharded.New[uint64](c.capacity, c.threads, c.opts); err == nil {
			t.Errorf("%s: accepted (capacity=%d, opts=%+v)", c.name, c.capacity, c.opts)
		}
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	q := mustNew(t, 256, 4, nil)
	if q.Shards() != sharded.DefaultShards {
		t.Fatalf("Shards() = %d, want default %d", q.Shards(), sharded.DefaultShards)
	}
	if q.Cap() != 256 {
		t.Fatalf("Cap() = %d, want 256", q.Cap())
	}
	if q.Footprint() == 0 {
		t.Fatal("zero footprint")
	}
	if q.Kind() != ringcore.KindWCQ {
		t.Fatalf("Kind() = %v, want wCQ", q.Kind())
	}
	if q.RingCap() != 256/sharded.DefaultShards {
		t.Fatalf("RingCap() = %d, want the per-shard capacity %d", q.RingCap(), 256/sharded.DefaultShards)
	}
	if q.Rings() != 0 {
		t.Fatalf("Rings() = %d, want 0 with bounded shards", q.Rings())
	}
}

func TestPerHandleFIFO(t *testing.T) {
	// A single handle enqueues to one shard, so its values come back
	// in strict order no matter how many shards exist.
	q := mustNew(t, 64, 2, &sharded.Options{Shards: 8})
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if !h.Enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("empty queue returned a value")
	}
}

func TestWorkStealing(t *testing.T) {
	// Values enqueued via one handle (one home shard) must be visible
	// to a handle whose home is a different shard.
	q := mustNew(t, 64, 4, &sharded.Options{Shards: 4})
	producer, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	thief, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if !producer.Enqueue(42) {
		t.Fatal("enqueue failed")
	}
	v, ok := thief.Dequeue()
	if !ok || v != 42 {
		t.Fatalf("steal got (%d,%v), want 42", v, ok)
	}
}

func TestNoShardStarvation(t *testing.T) {
	// Register one handle per shard, enqueue through each, then drain
	// everything through a single consumer: the rotating cursor must
	// visit every shard.
	const shards = 4
	q := mustNew(t, 64, shards+1, &sharded.Options{Shards: shards})
	for i := 0; i < shards; i++ {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if !h.Enqueue(uint64(i)) {
			t.Fatalf("enqueue to shard %d failed", i)
		}
	}
	consumer, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < shards; i++ {
		v, ok := consumer.Dequeue()
		if !ok {
			t.Fatalf("drain stalled after %d values", i)
		}
		seen[v] = true
	}
	if len(seen) != shards {
		t.Fatalf("drained %d distinct values, want %d", len(seen), shards)
	}
}

func TestEnqueueBatchPrefixOnFull(t *testing.T) {
	// A short EnqueueBatch count must be a prefix: the home shard here
	// holds 4, so a batch of 6 enqueues exactly the first 4.
	q := mustNew(t, 8, 2, &sharded.Options{Shards: 2})
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	batch := []uint64{10, 11, 12, 13, 14, 15}
	if n := h.EnqueueBatch(batch); n != 4 {
		t.Fatalf("EnqueueBatch = %d, want 4 (per-shard capacity)", n)
	}
	for i := uint64(10); i < 14; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
}

func TestDequeueBatchDrainsAcrossShards(t *testing.T) {
	q := mustNew(t, 64, 3, &sharded.Options{Shards: 2})
	h1, _ := q.Acquire()
	h2, _ := q.Acquire()
	for i := uint64(0); i < 5; i++ {
		h1.Enqueue(i)
		h2.Enqueue(100 + i)
	}
	consumer, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 16)
	if n := consumer.DequeueBatch(out); n != 10 {
		t.Fatalf("DequeueBatch = %d, want 10 (both shards drained)", n)
	}
	if n := consumer.DequeueBatch(out); n != 0 {
		t.Fatalf("empty queue yielded %d values", n)
	}
}

func TestSCQBackend(t *testing.T) {
	q := mustNew(t, 64, 4, &sharded.Options{Shards: 4, Kind: ringcore.KindSCQ})
	if q.Kind() != ringcore.KindSCQ {
		t.Fatalf("Kind() = %v, want SCQ", q.Kind())
	}
	a := &apiQueue{q: q}
	if err := checker.Run(a, checker.Config{Producers: 3, Consumers: 3, PerProducer: 3000, Capacity: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerMPMC(t *testing.T) {
	// Global no-loss/no-dup plus per-producer FIFO under concurrency —
	// the linearizable-per-shard composition property.
	q := mustNew(t, 256, 16, &sharded.Options{Shards: 4})
	a := &apiQueue{q: q}
	if err := checker.Run(a, checker.Config{Producers: 4, Consumers: 4, PerProducer: 5000, Capacity: 256}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerBatchedMPMC(t *testing.T) {
	q := mustNew(t, 256, 16, &sharded.Options{Shards: 4})
	a := &apiQueue{q: q}
	if err := checker.RunBatch(a, checker.Config{Producers: 4, Consumers: 4, PerProducer: 5000, Capacity: 256}, 32); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerSlowPath(t *testing.T) {
	// Patience 1 forces the wCQ helped slow path inside every shard.
	q := mustNew(t, 64, 14, &sharded.Options{
		Shards: 2,
		Core:   &ringcore.Options{EnqPatience: 1, DeqPatience: 1, HelpDelay: 1},
	})
	a := &apiQueue{q: q}
	if err := checker.Run(a, checker.Config{Producers: 3, Consumers: 3, PerProducer: 3000, Capacity: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestUnboundedShards(t *testing.T) {
	// capacity is each shard's ring size here; tiny rings force real
	// turnover inside every shard during the checker run.
	q := mustNew(t, 16, 16, &sharded.Options{Shards: 4, Unbounded: true})
	if q.RingCap() != 16 {
		t.Fatalf("RingCap() = %d, want the ring size 16", q.RingCap())
	}
	if q.Cap() != 0 {
		t.Fatalf("Cap() = %d, want 0 (no global bound)", q.Cap())
	}
	rest := q.Footprint()
	if rest == 0 {
		t.Fatal("zero footprint at rest")
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// One handle's values go to its home shard and grow it far past a
	// single ring; FIFO must survive the rollovers, and the footprint
	// must rise and then come back near rest after the drain.
	const n = 1000
	for i := uint64(0); i < n; i++ {
		if !h.Enqueue(i) {
			t.Fatalf("unbounded shard reported full at %d", i)
		}
	}
	if q.Footprint() <= rest {
		t.Fatal("footprint did not grow across a buffered burst")
	}
	if q.Rings() <= q.Shards() {
		t.Fatalf("Rings() = %d across %d shards after a %d-value burst into 16-slot rings", q.Rings(), q.Shards(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
	if got := q.Footprint(); got > 8*rest {
		t.Fatalf("retained %d B after drain (rest %d B)", got, rest)
	}
	a := &apiQueue{q: q}
	if err := checker.Run(a, checker.Config{Producers: 3, Consumers: 3, PerProducer: 3000, Capacity: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestUnboundedShardsSCQKind(t *testing.T) {
	q := mustNew(t, 16, 16, &sharded.Options{Shards: 2, Unbounded: true, Kind: ringcore.KindSCQ})
	a := &apiQueue{q: q}
	if err := checker.RunBatch(a, checker.Config{Producers: 3, Consumers: 3, PerProducer: 3000, Capacity: 64}, 16); err != nil {
		t.Fatal(err)
	}
}
