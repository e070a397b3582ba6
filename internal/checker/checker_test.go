package checker

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/queueapi"
	"repro/internal/queues"
)

func TestEncodeDecode(t *testing.T) {
	for _, c := range []struct{ p, s int }{{0, 0}, {3, 12345}, {255, 1 << 30}} {
		p, s := Decode(Encode(c.p, c.s))
		if p != c.p || s != c.s {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.p, c.s, p, s)
		}
	}
}

// mutexQueue is a trivially correct queue used to validate the checker
// itself accepts correct behaviour.
type mutexQueue struct {
	mu sync.Mutex
	vs []uint64
}

func (q *mutexQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *mutexQueue) Cap() uint64                      { return 0 }
func (q *mutexQueue) Footprint() uint64                { return 0 }
func (q *mutexQueue) Name() string                     { return "mutex" }
func (q *mutexQueue) Enqueue(v uint64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.vs = append(q.vs, v)
	return true
}
func (q *mutexQueue) Dequeue() (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.vs) == 0 {
		return 0, false
	}
	v := q.vs[0]
	q.vs = q.vs[1:]
	return v, true
}

// dupQueue delivers every value twice — the checker must reject it.
type dupQueue struct {
	mutexQueue
	pending []uint64
}

func (q *dupQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *dupQueue) Dequeue() (uint64, bool) {
	q.mu.Lock()
	if len(q.pending) > 0 {
		v := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()
		return v, true
	}
	q.mu.Unlock()
	v, ok := q.mutexQueue.Dequeue()
	if ok {
		q.mu.Lock()
		q.pending = append(q.pending, v)
		q.mu.Unlock()
	}
	return v, ok
}

// lifoQueue violates FIFO — the checker must reject it.
type lifoQueue struct{ mutexQueue }

func (q *lifoQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *lifoQueue) Dequeue() (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.vs) == 0 {
		return 0, false
	}
	v := q.vs[len(q.vs)-1]
	q.vs = q.vs[:len(q.vs)-1]
	return v, true
}

// blockingRef is a trivially correct blocking queue (a Go channel)
// used to validate that blocking Run accepts correct close/drain behaviour.
type blockingRef struct {
	ch   chan uint64
	drop int // deliver every drop-th value nowhere (0 = correct)
	mu   sync.Mutex
	n    int
}

func newBlockingRef(capacity, drop int) *blockingRef {
	return &blockingRef{ch: make(chan uint64, capacity), drop: drop}
}

func (q *blockingRef) Handle() (queueapi.Handle, error) { return q, nil }
func (q *blockingRef) Cap() uint64                      { return uint64(cap(q.ch)) }
func (q *blockingRef) Footprint() uint64                { return 0 }
func (q *blockingRef) Name() string                     { return "blocking-ref" }
func (q *blockingRef) Close() error                     { close(q.ch); return nil }

func (q *blockingRef) Enqueue(v uint64) bool {
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}
func (q *blockingRef) Dequeue() (uint64, bool) {
	select {
	case v := <-q.ch:
		return v, true
	default:
		return 0, false
	}
}

func (q *blockingRef) Send(v uint64) error {
	if q.drop > 0 {
		q.mu.Lock()
		q.n++
		lose := q.n%q.drop == 0
		q.mu.Unlock()
		if lose {
			return nil // claims success, never delivers
		}
	}
	q.ch <- v
	return nil
}
func (q *blockingRef) SendCtx(ctx context.Context, v uint64) error {
	select {
	case q.ch <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
func (q *blockingRef) Recv() (uint64, error) {
	v, ok := <-q.ch
	if !ok {
		return 0, queueapi.ErrClosed
	}
	return v, nil
}
func (q *blockingRef) RecvCtx(ctx context.Context) (uint64, error) {
	select {
	case v, ok := <-q.ch:
		if !ok {
			return 0, queueapi.ErrClosed
		}
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func TestBlockingCheckerAcceptsCorrectQueue(t *testing.T) {
	q := newBlockingRef(64, 0)
	err := Run(q, Config{Producers: 3, Consumers: 3, PerProducer: 3000, Capacity: 64, Blocking: true})
	if err != nil {
		t.Fatalf("correct blocking queue rejected: %v", err)
	}
}

func TestBlockingCheckerCatchesLoss(t *testing.T) {
	q := newBlockingRef(64, 100) // silently drops every 100th value
	err := Run(q, Config{Producers: 2, Consumers: 2, PerProducer: 2000, Capacity: 64, Blocking: true})
	if err == nil {
		t.Fatal("lost values not detected by blocking checker")
	}
}

func TestBlockingCheckerRejectsNonBlockingQueue(t *testing.T) {
	if err := Run(&mutexQueue{}, Config{Producers: 1, Consumers: 1, PerProducer: 1, Blocking: true}); err == nil {
		t.Fatal("queue without Closer/Waitable accepted")
	}
}

func TestCheckerAcceptsCorrectQueue(t *testing.T) {
	q := &mutexQueue{}
	if err := Run(q, Config{Producers: 2, Consumers: 2, PerProducer: 2000, Capacity: 64}); err != nil {
		t.Fatalf("correct queue rejected: %v", err)
	}
	if err := RunSPSC(&mutexQueue{}, 5000); err != nil {
		t.Fatalf("correct queue rejected by SPSC: %v", err)
	}
	if err := RunDrain(&mutexQueue{}, 5000); err != nil {
		t.Fatalf("correct queue rejected by drain: %v", err)
	}
}

func TestBatchCheckerAcceptsCorrectQueue(t *testing.T) {
	// The mutex queue has no native Batcher, so this also exercises
	// the queueapi fallback path end to end.
	q := &mutexQueue{}
	if err := Run(q, Config{Producers: 2, Consumers: 2, PerProducer: 2000, Capacity: 64, Batch: 8}); err != nil {
		t.Fatalf("correct queue rejected by batch checker: %v", err)
	}
}

func TestBatchCheckerCatchesDuplicates(t *testing.T) {
	err := Run(&dupQueue{}, Config{Producers: 1, Consumers: 1, PerProducer: 200, Capacity: 64, Batch: 4})
	if err == nil {
		t.Fatal("duplicate deliveries not detected by batch checker")
	}
}

func TestCheckerCatchesDuplicates(t *testing.T) {
	err := Run(&dupQueue{}, Config{Producers: 1, Consumers: 1, PerProducer: 100, Capacity: 64})
	if err == nil {
		t.Fatal("duplicate deliveries not detected")
	}
}

func TestCheckerCatchesFIFOViolation(t *testing.T) {
	err := RunSPSC(&lifoQueue{}, 1000)
	if err == nil || !strings.Contains(err.Error(), "FIFO") {
		t.Fatalf("LIFO order not detected: %v", err)
	}
}

// overReportQueue is a correct queue whose native EnqueueBatch starts
// over-reporting once the batch pre-phase is past: it enqueues every
// value but claims one more. The producer that sees the bad count
// stops early, so the values the consumers wait for never come.
type overReportQueue struct {
	mutexQueue
	calls atomic.Int32
}

func (q *overReportQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *overReportQueue) EnqueueBatch(vs []uint64) int {
	for _, v := range vs {
		q.Enqueue(v)
	}
	if q.calls.Add(1) > 8 { // the pre-phase makes 4 calls
		return len(vs) + 1
	}
	return len(vs)
}
func (q *overReportQueue) DequeueBatch(out []uint64) int {
	for i := range out {
		v, ok := q.Dequeue()
		if !ok {
			return i
		}
		out[i] = v
	}
	return len(out)
}

// stuckQueue reports full and empty forever: nothing is ever
// delivered.
type stuckQueue struct{ mutexQueue }

func (q *stuckQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *stuckQueue) Enqueue(uint64) bool              { return false }
func (q *stuckQueue) Dequeue() (uint64, bool)          { return 0, false }

// stuckBlockingQueue parks every Send and Recv until Close: a blocking
// queue that delivers nothing.
type stuckBlockingQueue struct {
	stuckQueue
	closed chan struct{}
}

func (q *stuckBlockingQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *stuckBlockingQueue) Close() error                     { close(q.closed); return nil }
func (q *stuckBlockingQueue) Send(uint64) error                { <-q.closed; return queueapi.ErrClosed }
func (q *stuckBlockingQueue) SendCtx(context.Context, uint64) error {
	return q.Send(0)
}
func (q *stuckBlockingQueue) Recv() (uint64, error) { <-q.closed; return 0, queueapi.ErrClosed }
func (q *stuckBlockingQueue) RecvCtx(context.Context) (uint64, error) {
	return q.Recv()
}

// runWithin runs the checker and fails the test if it takes longer
// than limit; a hung checker is caught by the test timeout instead.
func runWithin(t *testing.T, limit time.Duration, q queueapi.Queue, cfg Config) error {
	t.Helper()
	start := time.Now()
	err := Run(q, cfg)
	if d := time.Since(start); d > limit {
		t.Fatalf("checker took %v, want under %v", d, limit)
	}
	return err
}

func TestBatchCheckerFailsOnOverReport(t *testing.T) {
	err := runWithin(t, 10*time.Second, &overReportQueue{},
		Config{Producers: 2, Consumers: 2, PerProducer: 2000, Capacity: 64, Batch: 8})
	if err == nil || !strings.Contains(err.Error(), "EnqueueBatch returned") {
		t.Fatalf("over-reporting EnqueueBatch not reported: %v", err)
	}
}

func TestCheckerFailsOnLivelock(t *testing.T) {
	err := runWithin(t, 10*time.Second, &stuckQueue{},
		Config{Producers: 2, Consumers: 2, PerProducer: 100, Capacity: 64})
	if err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("stuck queue not reported as livelock: %v", err)
	}
}

func TestBlockingCheckerFailsOnLivelock(t *testing.T) {
	q := &stuckBlockingQueue{closed: make(chan struct{})}
	err := runWithin(t, 10*time.Second, q,
		Config{Producers: 2, Consumers: 2, PerProducer: 100, Capacity: 64, Blocking: true})
	if err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("stuck blocking queue not reported as livelock: %v", err)
	}
}

// leakyQueue retains 256 bytes per value ever enqueued: 1 MB per
// 4096-value unbounded fill/drain cycle.
type leakyQueue struct {
	mutexQueue
	enqueued atomic.Uint64
}

func (q *leakyQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *leakyQueue) Footprint() uint64                { return q.enqueued.Load() * 256 }
func (q *leakyQueue) Enqueue(v uint64) bool {
	q.enqueued.Add(1)
	return q.mutexQueue.Enqueue(v)
}

func TestFootprintCatchesLeak(t *testing.T) {
	err := Footprint(&leakyQueue{}, Config{Producers: 2, Consumers: 2}, 8)
	if err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("growing footprint not reported as a leak: %v", err)
	}
}

func TestFootprintAcceptsStableQueue(t *testing.T) {
	if err := Footprint(&mutexQueue{}, Config{Producers: 2, Consumers: 2}, 8); err != nil {
		t.Fatalf("stable queue rejected: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{Producers: 1, Consumers: 1, PerProducer: 1}
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"negative producers", func(c *Config) { c.Producers = -1 }},
		{"no producers", func(c *Config) { c.Producers = 0 }},
		{"no consumers", func(c *Config) { c.Consumers = 0 }},
		{"no values", func(c *Config) { c.PerProducer = 0 }},
		{"negative values", func(c *Config) { c.PerProducer = -5 }},
	}
	if strconv.IntSize == 64 {
		wide := uint64(math.MaxUint32) + 1 // one past Encode's sequence field
		cases = append(cases, struct {
			name string
			edit func(*Config)
		}{"values overflow the sequence field", func(c *Config) { c.PerProducer = int(wide) }})
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := ok
			c.edit(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("%+v accepted", cfg)
			}
			// Run must refuse before it sizes anything from cfg.
			if err := Run(&mutexQueue{}, cfg); err == nil {
				t.Fatalf("Run accepted %+v", cfg)
			}
		})
	}
}

// TestSessionReusesHandles runs five rounds through one Open on the
// census-bound ring queues, built with exactly the handles Open needs:
// a round that registered new handles would exhaust the census at
// round 1.
func TestSessionReusesHandles(t *testing.T) {
	for _, name := range []string{"wCQ", "Sharded", "UWCQ"} {
		for _, batch := range []int{1, 4} {
			cfg := Config{Producers: 2, Consumers: 2, PerProducer: 2000, Capacity: 64, Batch: batch}
			handles := cfg.Producers + cfg.Consumers
			if batch > 1 {
				handles++ // the batch pre-phase handle
			}
			t.Run(fmt.Sprintf("%s/batch%d", name, batch), func(t *testing.T) {
				q, err := queues.New(name, queues.Config{Capacity: 64, MaxThreads: handles})
				if err != nil {
					t.Fatal(err)
				}
				s, err := Open(q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < 5; r++ {
					if err := s.Round(); err != nil {
						t.Fatalf("round %d: %v", r, err)
					}
				}
			})
		}
	}
}

func TestBlockingSessionRefusesSecondRound(t *testing.T) {
	s, err := Open(newBlockingRef(64, 0), Config{Producers: 1, Consumers: 1, PerProducer: 100, Blocking: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Round(); err != nil {
		t.Fatalf("first blocking round: %v", err)
	}
	if err := s.Round(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("second round on a closed queue: %v", err)
	}
}
