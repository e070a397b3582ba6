package metrics

import (
	"sync"
	"testing"
)

// TestSinkCounts: totals across stripes must be exact regardless of
// which stripes the increments landed on.
func TestSinkCounts(t *testing.T) {
	s := New()
	const workers = 8
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Inc(EnqSlowPath)
				s.Add(Park, 2)
			}
		}()
	}
	wg.Wait()
	if got := s.Count(EnqSlowPath); got != workers*per {
		t.Fatalf("Count(EnqSlowPath) = %d, want %d", got, workers*per)
	}
	if got := s.Count(Park); got != 2*workers*per {
		t.Fatalf("Count(Park) = %d, want %d", got, 2*workers*per)
	}
	snap := s.Snapshot()
	if snap.Counts[EnqSlowPath] != workers*per || snap.Counts[Park] != 2*workers*per {
		t.Fatalf("Snapshot counts = %v", snap.Counts)
	}
	if snap.Counts[DeqSlowPath] != 0 {
		t.Fatalf("untouched counter nonzero: %v", snap.Counts)
	}
}

// TestNilSink: the disabled mode is a nil pointer; every method must
// be a safe no-op.
func TestNilSink(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink reports Enabled")
	}
	s.Inc(Wake)
	s.Add(Wake, 3)
	s.ObserveParked(100)
	if s.Count(Wake) != 0 {
		t.Fatal("nil sink counted")
	}
	snap := s.Snapshot()
	if snap != (Snapshot{}) {
		t.Fatalf("nil sink snapshot not zero: %+v", snap)
	}
}

// TestEventNames: every event needs a stable, unique wire name —
// wcqstress -serve exports them as Prometheus label values.
func TestEventNames(t *testing.T) {
	seen := make(map[string]Event)
	for e := Event(0); e < NumEvents; e++ {
		name := e.String()
		if name == "" || name == "unknown" {
			t.Errorf("event %d has no name", e)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("events %d and %d share name %q", prev, e, name)
		}
		seen[name] = e
	}
	if NumEvents.String() != "unknown" {
		t.Errorf("out-of-range event stringifies to %q", NumEvents.String())
	}
}

// TestSnapshotMerge: merging sink snapshots adds counters and merges
// the parked histograms.
func TestSnapshotMerge(t *testing.T) {
	a, b := New(), New()
	a.Inc(StealAttempt)
	a.ObserveParked(1000)
	b.Inc(StealAttempt)
	b.Inc(StealHit)
	b.ObserveParked(3000)

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Counts[StealAttempt] != 2 || sa.Counts[StealHit] != 1 {
		t.Fatalf("merged counts = %v", sa.Counts)
	}
	if sa.Parked.Count != 2 || sa.Parked.Max != 3000 {
		t.Fatalf("merged parked = count %d max %d", sa.Parked.Count, sa.Parked.Max)
	}
}

// TestRecordingDoesNotAllocate pins the zero-alloc contract the
// hotalloc annotations promise: enabled-sink increments and histogram
// records must not allocate (in particular, the stack-address stripe
// probe must not force an escape).
func TestRecordingDoesNotAllocate(t *testing.T) {
	s := New()
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() {
		s.Inc(DeqSlowPath)
		s.ObserveParked(512)
		h.Record(4096)
	}); n != 0 {
		t.Fatalf("recording allocates %v per run", n)
	}
}

// Counter overhead: enabled sink vs disabled (nil) sink vs no
// instrumentation at all. The disabled column is the price every hot
// path pays for carrying metrics; it must be a lone predictable
// branch.
func BenchmarkInc(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		s := New()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.Inc(EnqSlowPath)
			}
		})
	})
	b.Run("disabled", func(b *testing.B) {
		var s *Sink
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.Inc(EnqSlowPath)
			}
		})
	})
	b.Run("absent", func(b *testing.B) {
		var x uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				x++
			}
		})
		_ = x
	})
}

// BenchmarkRecord measures histogram recording with and without a
// receiver, mirroring BenchmarkInc.
func BenchmarkRecord(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		h := NewHistogram()
		b.RunParallel(func(pb *testing.PB) {
			var v uint64
			for pb.Next() {
				v += 1023
				h.Record(v)
			}
		})
	})
	b.Run("disabled", func(b *testing.B) {
		var h *Histogram
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.Record(1023)
			}
		})
	})
}
