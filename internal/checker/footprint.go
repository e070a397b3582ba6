package checker

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/queueapi"
)

// Footprint drives cycles fill/drain cycles through q and holds every
// post-drain Footprint() to 2x the one after the first drain plus an
// absolute 0.25 MB. A queue that retains memory in proportion to
// traffic (a leaked ring chain) walks through the bound within a few
// cycles, while one-time warm-up allocation is tolerated.
//
// Each cycle, cfg.Producers goroutines fill a burst of q's capacity
// (4096 values when q is unbounded), stopping early on full, and
// cfg.Consumers goroutines drain it; the rest of cfg is unused.
func Footprint(q queueapi.Queue, cfg Config, cycles int) error {
	if cfg.Producers < 1 || cfg.Consumers < 1 {
		return fmt.Errorf("checker: footprint needs a producer and a consumer, have %d and %d",
			cfg.Producers, cfg.Consumers)
	}
	burst := int(q.Cap())
	if burst == 0 {
		burst = 4096
	}
	// Handles are reused across cycles, one goroutine at a time.
	hs := make([]queueapi.Handle, cfg.Producers+cfg.Consumers)
	for i := range hs {
		h, err := q.Handle()
		if err != nil {
			return fmt.Errorf("footprint handle: %w", err)
		}
		hs[i] = h
	}
	prods, cons := hs[:cfg.Producers], hs[cfg.Producers:]

	var baseline float64
	for cycle := 0; cycle < cycles; cycle++ {
		var filled, drained atomic.Int64
		var wg sync.WaitGroup
		for p, h := range prods {
			share := burst / len(prods)
			if p == 0 {
				share += burst % len(prods)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < share && h.Enqueue(Encode(p, i)); i++ {
					filled.Add(1)
				}
			}()
		}
		wg.Wait()
		for _, h := range cons {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for drained.Load() < filled.Load() {
					if _, ok := h.Dequeue(); ok {
						drained.Add(1)
						continue
					}
					runtime.Gosched()
				}
			}()
		}
		wg.Wait()
		mb := float64(q.Footprint()) / (1 << 20)
		if cycle == 0 {
			baseline = mb
			continue
		}
		if limit := baseline*2 + 0.25; mb > limit {
			return fmt.Errorf("%s leaked: post-drain footprint %.3f MB after cycle %d, baseline %.3f MB (limit %.3f)",
				q.Name(), mb, cycle, baseline, limit)
		}
	}
	return nil
}
