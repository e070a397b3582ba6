//go:build soak

package queues

import (
	"testing"
	"time"

	"repro/internal/checker"
)

// The soak tier: long checker runs, built only with -tags soak (CI's
// soak-smoke job runs them under -race). Each Run row moves 800,000
// values and each Footprint row runs 100 fill/drain cycles; raise them
// locally for a real soak.

// soakQueues is the production line-up: the paper's ring, its sharded
// composition, an unbounded composition, and a blocking facade.
var soakQueues = []string{"wCQ", "Sharded", "UWCQ", "Chan"}

// TestSoakRun sustains mixed scalar and batch traffic (lengths drawn
// from [1, 16]) with per-value exactly-once and FIFO checking under
// the livelock watchdog.
func TestSoakRun(t *testing.T) {
	for _, name := range soakQueues {
		t.Run(name, func(t *testing.T) {
			q, err := New(name, Config{Capacity: 1 << 10, MaxThreads: 16})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err = checker.Run(q, checker.Config{
				Producers: 4, Consumers: 4, PerProducer: 200_000, Capacity: 1 << 10, Batch: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: 800000 values in %v", name, time.Since(start).Round(time.Millisecond))
		})
	}
}

// TestSoakFootprint asserts that after every drain the footprint is
// back within the first-drain baseline band (2x + 0.25 MB).
func TestSoakFootprint(t *testing.T) {
	for _, name := range soakQueues {
		t.Run(name, func(t *testing.T) {
			q, err := New(name, Config{Capacity: 256, MaxThreads: 16})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if err := checker.Footprint(q, checker.Config{Producers: 2, Consumers: 2}, 100); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: 100 cycles in %v, final footprint %d B", name, time.Since(start).Round(time.Millisecond), q.Footprint())
		})
	}
}
