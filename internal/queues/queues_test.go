// Cross-implementation conformance suite: every real queue must pass
// the same MPMC correctness checks (no loss, no duplication,
// per-producer FIFO, strict SPSC order, full/empty drains).
package queues

import (
	"testing"

	"repro/internal/atomicx"
	"repro/internal/checker"
	"repro/internal/queueapi"
	"repro/internal/ringcore"
)

func testCfg() Config {
	return Config{Capacity: 256, MaxThreads: 32}
}

func TestRegistry(t *testing.T) {
	if len(Names()) != 17 {
		t.Fatalf("registry has %d entries: %v", len(Names()), Names())
	}
	if _, err := New("nope", testCfg()); err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, n := range Names() {
		q, err := New(n, testCfg())
		if err != nil {
			t.Fatalf("building %s: %v", n, err)
		}
		if q.Name() != n {
			t.Fatalf("built %q, asked for %q", q.Name(), n)
		}
	}
}

// TestBlockingConformance runs the Chan facades through the checker
// suite via the queueapi.Waitable adapter: the nonblocking checker
// (TrySend/TryRecv keep the Queue contract) and the blocking checker
// (parked Send/Recv with a graceful Close and full drain).
func TestBlockingConformance(t *testing.T) {
	for _, name := range BlockingQueues() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := q.(queueapi.Closer); !ok {
				t.Fatalf("%s does not implement queueapi.Closer", name)
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := h.(queueapi.Waitable); !ok {
				t.Fatalf("%s handle does not implement queueapi.Waitable", name)
			}
			err = checker.Run(q, checker.Config{
				Producers: 3, Consumers: 3, PerProducer: 3000, Capacity: 256,
			})
			if err != nil {
				t.Fatalf("nonblocking checker: %v", err)
			}
			q2, err := New(name, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			err = checker.Run(q2, checker.Config{
				Producers: 3, Consumers: 3, PerProducer: 3000, Capacity: 256, Blocking: true,
			})
			if err != nil {
				t.Fatalf("blocking checker: %v", err)
			}
		})
	}
}

func TestBlockingSlowpathConformance(t *testing.T) {
	// The wCQ-backed Chan with patience 1 + eager helping: parked
	// blocking ops layered over the helped slow paths.
	cfg := testCfg()
	cfg.Core = &ringcore.Options{EnqPatience: 1, DeqPatience: 1, HelpDelay: 1}
	q, err := New("Chan", cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = checker.Run(q, checker.Config{
		Producers: 2, Consumers: 2, PerProducer: 2000, Capacity: 256, Blocking: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnboundedConformance pins the unbounded line-up's registry
// contract: present in Names and RealQueues (LSCQ/UWCQ) or
// BlockingQueues (ChanUnbounded), Cap 0, never-full Enqueue, and a
// live Footprint that returns near rest after a burst drains.
func TestUnboundedConformance(t *testing.T) {
	real := map[string]bool{}
	for _, n := range RealQueues() {
		real[n] = true
	}
	blocking := map[string]bool{}
	for _, n := range BlockingQueues() {
		blocking[n] = true
	}
	for _, name := range UnboundedQueues() {
		name := name
		t.Run(name, func(t *testing.T) {
			if !real[name] && !blocking[name] {
				t.Fatalf("%s in neither RealQueues nor BlockingQueues", name)
			}
			cfg := testCfg()
			cfg.Capacity = 16 // per-ring: force turnover
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if q.Cap() != 0 {
				t.Fatalf("Cap() = %d, want 0 (unbounded)", q.Cap())
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			rest := q.Footprint()
			if rest == 0 {
				t.Fatal("zero footprint at rest (has at least one ring)")
			}
			for i := 0; i < 1000; i++ {
				if !h.Enqueue(uint64(i)) {
					t.Fatalf("unbounded queue reported full at %d", i)
				}
			}
			if q.Footprint() <= rest {
				t.Fatal("footprint did not grow across a buffered burst")
			}
			for i := 0; i < 1000; i++ {
				if v, ok := h.Dequeue(); !ok || v != uint64(i) {
					t.Fatalf("dequeue %d = (%d, %v)", i, v, ok)
				}
			}
			if got := q.Footprint(); got > 8*rest {
				t.Fatalf("retained %d B after drain (rest %d B): ring pool not bounding memory", got, rest)
			}
		})
	}
}

// TestUnboundedRingsGauge pins the live-ring gauge every unbounded
// registry entry exports (wcqstress -serve's "rings"): overfilling 4-slot
// rings must show up as more than one linked ring, through the sharded
// composition and the Chan facades too.
func TestUnboundedRingsGauge(t *testing.T) {
	for _, name := range UnboundedQueues() {
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Capacity = 4
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, ok := q.(interface{ Rings() int })
			if !ok {
				t.Fatalf("%s has no Rings method", name)
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if !h.Enqueue(uint64(i)) {
					t.Fatalf("unbounded queue reported full at %d", i)
				}
			}
			if got := r.Rings(); got <= 1 {
				t.Fatalf("Rings() = %d after 100 values in 4-slot rings, want > 1", got)
			}
		})
	}
}

func TestLCRQUnavailableUnderEmulation(t *testing.T) {
	cfg := testCfg()
	cfg.Mode = atomicx.EmulatedFAA
	if _, err := New("LCRQ", cfg); err == nil {
		t.Fatal("LCRQ built under emulated F&A; the paper omits it on PowerPC")
	}
}

func TestSPSCOrder(t *testing.T) {
	for _, name := range RealQueues() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			if err := checker.RunSPSC(q, 30000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDrainCycles(t *testing.T) {
	for _, name := range RealQueues() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			if err := checker.RunDrain(q, 20000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMPMCExactlyOnce(t *testing.T) {
	for _, name := range RealQueues() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			err = checker.Run(q, checker.Config{
				Producers: 4, Consumers: 4, PerProducer: 5000, Capacity: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMPMCEmulatedFAA(t *testing.T) {
	// The PowerPC configuration: every F&A is a CAS loop; LCRQ excluded.
	for _, name := range RealQueues() {
		if name == "LCRQ" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Mode = atomicx.EmulatedFAA
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = checker.Run(q, checker.Config{
				Producers: 3, Consumers: 3, PerProducer: 3000, Capacity: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMPMCAsymmetric(t *testing.T) {
	// Many producers, one consumer and vice versa stress different
	// contention corners (ring wrap vs. emptiness detection).
	shapes := []struct{ p, c int }{{6, 1}, {1, 6}}
	for _, name := range RealQueues() {
		for _, sh := range shapes {
			name, sh := name, sh
			t.Run(name, func(t *testing.T) {
				q, err := New(name, testCfg())
				if err != nil {
					t.Fatal(err)
				}
				err = checker.Run(q, checker.Config{
					Producers: sh.p, Consumers: sh.c, PerProducer: 3000, Capacity: 256,
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestWCQTinyCapacityContention(t *testing.T) {
	// Tiny rings maximize wrap-around and slow-path traffic for the
	// bounded queues, and full/empty transitions dominate: the regime
	// where the checker's livelock watchdog matters most. Chan adds the
	// facade's nonblocking surface over the same tiny wCQ ring.
	for _, name := range []string{"wCQ", "SCQ", "Chan"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Capacity = 4
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = checker.Run(q, checker.Config{
				Producers: 3, Consumers: 3, PerProducer: 4000, Capacity: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBoundedFullBehaviour(t *testing.T) {
	// Bounded queues must report full exactly at capacity.
	for _, name := range []string{"wCQ", "SCQ"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Capacity = 8
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if !h.Enqueue(uint64(i)) {
					t.Fatalf("full at %d, capacity 8", i)
				}
			}
			if h.Enqueue(99) {
				t.Fatal("enqueue beyond capacity succeeded")
			}
			if q.Cap() != 8 {
				t.Fatalf("Cap() = %d", q.Cap())
			}
		})
	}
}

func TestFootprintSemantics(t *testing.T) {
	// wCQ, SCQ and the sharded compositions have footprints from
	// construction; LCRQ's grows with allocated rings.
	cfg := testCfg()
	for _, name := range []string{"wCQ", "SCQ", "Sharded", "ShardedUnbounded"} {
		q, _ := New(name, cfg)
		if q.Footprint() == 0 {
			t.Errorf("%s: zero footprint", name)
		}
	}
	q, _ := New("LCRQ", cfg)
	if q.Footprint() == 0 {
		t.Error("LCRQ: zero initial footprint (has one ring)")
	}
}

func TestMPMCBatched(t *testing.T) {
	// Batched conformance across the whole registry (minus the FAA
	// pseudo-queue, which is not a real FIFO): the queues with a native
	// queueapi.Batcher — wCQ, SCQ, Sharded, LSCQ, UWCQ and every Chan
	// facade — exercise the single-F&A reservation path, the baselines
	// the generic fallback. Operation lengths are drawn from [1, 16], so
	// every handle mixes scalar and batch calls; the checker also
	// asserts the batch atomicity and partial-success accounting
	// contracts.
	names := append(append([]string{}, RealQueues()...), BlockingQueues()...)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			err = checker.Run(q, checker.Config{
				Producers: 3, Consumers: 3, PerProducer: 4000, Capacity: 256, Batch: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNativeBatchers pins which registry handles expose the native
// queueapi.Batcher: every ring-based queue and facade in this
// repository, i.e. everything but the paper's external baselines.
func TestNativeBatchers(t *testing.T) {
	native := []string{"wCQ", "SCQ", "Sharded", "ShardedUnbounded", "LSCQ", "UWCQ",
		"Chan", "ChanSCQ", "ChanSharded", "ChanShardedUnbounded", "ChanUnbounded"}
	for _, name := range native {
		q, err := New(name, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.Handle()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := h.(queueapi.Batcher); !ok {
			t.Errorf("%s handle does not implement queueapi.Batcher", name)
		}
	}
}

// TestBlockingBatchConformance drives every Chan facade through the
// blocking batch checker: parked SendMany/RecvMany, graceful Close,
// and the partial batch at close-drain — with every value delivered
// exactly once.
func TestBlockingBatchConformance(t *testing.T) {
	for _, name := range BlockingQueues() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := h.(queueapi.BatchWaitable); !ok {
				t.Fatalf("%s handle does not implement queueapi.BatchWaitable", name)
			}
			err = checker.Run(q, checker.Config{
				Producers: 3, Consumers: 3, PerProducer: 3000, Capacity: 256, Batch: 16, Blocking: true,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestShardedConfig(t *testing.T) {
	// Capacity is split across shards; totals and shard counts must
	// line up, and indivisible capacities fail fast.
	cfg := testCfg()
	cfg.Shards = 8
	q, err := New("Sharded", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != cfg.Capacity {
		t.Fatalf("Cap() = %d, want total %d", q.Cap(), cfg.Capacity)
	}
	cfg.Shards = 3
	if _, err := New("Sharded", cfg); err == nil {
		t.Fatal("capacity 256 over 3 shards accepted")
	}
}

func TestShardedBatcherInterface(t *testing.T) {
	// The Sharded handle must expose the native batcher so harnesses
	// skip the one-at-a-time fallback.
	q, err := New("Sharded", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	b, ok := h.(queueapi.Batcher)
	if !ok {
		t.Fatal("Sharded handle does not implement queueapi.Batcher")
	}
	vs := []uint64{1, 2, 3, 4, 5}
	if n := b.EnqueueBatch(vs); n != len(vs) {
		t.Fatalf("EnqueueBatch = %d, want %d", n, len(vs))
	}
	out := make([]uint64, 8)
	if n := b.DequeueBatch(out); n != len(vs) {
		t.Fatalf("DequeueBatch = %d, want %d", n, len(vs))
	}
	// One handle's batch comes back in enqueue order (per-shard FIFO).
	for i, v := range out[:len(vs)] {
		if v != vs[i] {
			t.Fatalf("out[%d] = %d, want %d", i, v, vs[i])
		}
	}
}
