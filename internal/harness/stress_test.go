package harness

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/queues"
)

// The harness's own stress tier is gone; these tests keep its three
// checks on the registry queues, now driven by internal/checker:
// exactly-once delivery under mixed scalar and batch traffic, progress
// on a tiny ring under the livelock watchdog, and a footprint that
// returns to its baseline after fill/drain cycles.

func TestConcurrentStressConservation(t *testing.T) {
	// Every handle mixes scalar and batch calls (lengths drawn from
	// [1, 16]) on the bare rings, the sharded composition, an unbounded
	// queue, and a blocking facade's nonblocking surface alike.
	for _, name := range []string{"wCQ", "SCQ", "Sharded", "UWCQ", "Chan"} {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := queues.New(name, queues.Config{Capacity: 512, MaxThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			err = checker.Run(q, checker.Config{
				Producers: 2, Consumers: 2, PerProducer: 20000, Capacity: 512, Batch: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMemoryStressHoldsFootprintBaseline(t *testing.T) {
	// The unbounded queues are the ones with something to leak: their
	// footprint is live (linked rings), so a retained ring chain would
	// break the post-drain baseline bound. wCQ is the constant-footprint
	// control.
	for _, name := range []string{"UWCQ", "LSCQ", "ChanUnbounded", "wCQ"} {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := queues.New(name, queues.Config{Capacity: 128, MaxThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := checker.Footprint(q, checker.Config{Producers: 1, Consumers: 1}, 16); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestHighFrequencyMakesProgress(t *testing.T) {
	// A 64-slot ring under four goroutines spends most operations on
	// full/empty transitions; the checker's watchdog fails the run if
	// delivery ever stalls for two windows.
	for _, name := range []string{"wCQ", "SCQ", "Chan"} {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := queues.New(name, queues.Config{Capacity: 64, MaxThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			err = checker.Run(q, checker.Config{
				Producers: 2, Consumers: 2, PerProducer: 20000, Capacity: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
