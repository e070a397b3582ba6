package wfqueue

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// TestChanParkedRoundTripAllocs pins the parked round trip at zero
// allocations: a server goroutine echoes each request from one Chan on
// a second, and the client's Recv parks on every trip (the wait
// strategy skips the spin phases, and under AllocsPerRun's GOMAXPROCS
// of 1 the server cannot echo before the client parks). The park
// registration reuses the handle's own waiter, so after warm-up
// nothing on the path allocates.
func TestChanParkedRoundTripAllocs(t *testing.T) {
	for _, b := range []Backend{BackendWCQ, BackendSCQ} {
		t.Run(b.String(), func(t *testing.T) {
			sink := NewMetricsSink()
			req, err := NewChan[uint64](16, 2, WithBackend(b), WithWaitStrategy(ParkWait()))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := NewChan[uint64](16, 2, WithBackend(b), WithWaitStrategy(ParkWait()), WithMetrics(sink))
			if err != nil {
				t.Fatal(err)
			}
			var hs [4]*ChanHandle[uint64] // client req, client rep, server req, server rep
			for i, c := range []*Chan[uint64]{req, rep, req, rep} {
				if hs[i], err = c.Handle(); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan struct{})
			go func() { // server: echo until req closes
				defer close(done)
				for {
					v, err := hs[2].Recv()
					if err != nil {
						return
					}
					if err := hs[3].Send(v); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			trips := uint64(0)
			trip := func() {
				trips++
				if err := hs[0].Send(trips); err != nil {
					t.Fatal(err)
				}
				if v, err := hs[1].Recv(); err != nil || v != trips {
					t.Fatalf("trip %d: got %d, %v", trips, v, err)
				}
			}
			for i := 0; i < 100; i++ { // warm-up: handles, lazy runtime state
				trip()
			}
			parks, n0 := sink.Snapshot().Counts[metrics.Park], trips
			allocs := testing.AllocsPerRun(1000, trip)
			parks, n := sink.Snapshot().Counts[metrics.Park]-parks, trips-n0
			req.Close()
			<-done
			if allocs != 0 {
				t.Fatalf("parked round trip allocates %v objects per trip, want 0", allocs)
			}
			// Every trip should park; a rare preemption between the
			// client's Send and Recv lets the echo land first, so pin
			// nearly every trip rather than all of them.
			if parks*10 < n*9 {
				t.Fatalf("client parked on %d of %d trips: the round trip did not exercise the park", parks, n)
			}
		})
	}
}

// TestChanWaiterReuseCancelRace drives one receiver handle's reused
// park waiter through thousands of receives that alternate between a
// context cancelled mid-park and context.Background(), while a sender
// races Send. Every value must arrive exactly once and in order, and a
// cancelled receive returns either context.Canceled having taken
// nothing (the next value received is still the next one sent) or the
// value a handoff landed before the cancellation. Run with -race.
func TestChanWaiterReuseCancelRace(t *testing.T) {
	const values = 3000
	for _, b := range []Backend{BackendWCQ, BackendSCQ, BackendSharded} {
		t.Run(b.String(), func(t *testing.T) {
			// A shallow buffer (two shards of 4 on the sharded backend)
			// parks the sender too.
			c, err := NewChan[uint64](8, 2, WithBackend(b), WithShards(2), WithWaitStrategy(ParkWait()))
			if err != nil {
				t.Fatal(err)
			}
			sh, err := c.Handle()
			if err != nil {
				t.Fatal(err)
			}
			rh, err := c.Handle()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := uint64(1); v <= values; v++ {
					if err := sh.Send(v); err != nil {
						t.Errorf("send %d: %v", v, err)
						return
					}
					if v%3 == 0 {
						runtime.Gosched() // let the receiver run dry and park
					}
				}
			}()
			next := uint64(1)
			cancelled, late := 0, 0
			for i := 0; next <= values; i++ {
				if i%2 == 0 {
					v, err := rh.Recv()
					if err != nil || v != next {
						t.Fatalf("Recv: got %d, %v; want %d", v, err, next)
					}
					next++
					continue
				}
				ctx, cancel := context.WithCancel(context.Background())
				var returned, midPark atomic.Bool
				var canceller sync.WaitGroup
				canceller.Add(1)
				go func() { // cancel once the receiver has registered
					defer canceller.Done()
					defer cancel()
					for !returned.Load() {
						if c.notEmpty.Waiters() != 0 {
							midPark.Store(true)
							return
						}
						runtime.Gosched()
					}
				}()
				v, err := rh.RecvCtx(ctx)
				returned.Store(true)
				canceller.Wait()
				switch {
				case err == nil:
					if v != next {
						t.Fatalf("RecvCtx: got %d, want %d (lost or duplicated)", v, next)
					}
					if midPark.Load() {
						late++
					}
					next++
				case errors.Is(err, context.Canceled):
					if v != 0 {
						t.Fatalf("cancelled RecvCtx returned value %d with its error", v)
					}
					cancelled++
				default:
					t.Fatalf("RecvCtx: %v", err)
				}
			}
			wg.Wait()
			if v, ok, err := rh.TryRecv(); ok || err != nil {
				t.Fatalf("after all %d values: TryRecv = %d, %v, %v (duplicate delivery)", values, v, ok, err)
			}
			if cancelled == 0 {
				t.Fatal("no receive was cancelled: the race this test exists for never ran")
			}
			t.Logf("%d receives cancelled, %d returned a value after a mid-park cancel", cancelled, late)
		})
	}
}
