package harness

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/backoff"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/stats"
)

// Figure w1 compares blocking-wait strategies under waiter pressure:
// the same 1:3 send/recv blocking workload as b1, swept over the
// TOTAL goroutine count (far past GOMAXPROCS, so "waiters" is the
// honest axis name) with one line per wait strategy. Each point
// reports throughput, the blocking-wait latency ladder (spin-phase
// hits and futex parks share one histogram, so strategies are
// directly comparable), and the spin-hit rate the adaptive budget
// converged to.
var (
	waitQueues     = []string{"Chan", "ChanSharded"}
	waiterCounts   = []int{8, 64, 256, 1024}
	waitStrategies = []string{"park", "adaptive"}
	// waitRingCap keeps w1's rings small: the figure is about waiting,
	// not buffering, and a small ring makes the full/empty transitions
	// (hence the waits) frequent at every waiter count. At 4096 slots a
	// short run barely blocks at all and the wait ladder degenerates to
	// a handful of close-drain samples.
	waitRingCap = uint64(1 << 6)
)

// runWaiters executes a wait-strategy figure: for each queue and
// strategy, sweep the waiter count. Each point gets a fresh metrics
// sink (regardless of RunOpts.Metrics — the spin-hit rate and wait
// ladder ARE the figure) and a fresh queue per rep; the sink
// accumulates across reps, like the open-loop latency merge.
func (f Figure) runWaiters(opts RunOpts, qs []string) []Point {
	waiters := f.Waiters
	if len(opts.Waiters) > 0 {
		waiters = opts.Waiters
	}
	var pts []Point
	for _, name := range qs {
		for _, wname := range f.Waits {
			strat, serr := backoff.ByName(wname)
			for _, n := range waiters {
				if opts.MaxThreads > 0 && n > opts.MaxThreads {
					continue
				}
				pt := Point{Queue: name, Threads: n, Wait: wname}
				if serr != nil {
					pt.Err = serr
					pts = append(pts, pt)
					continue
				}
				sink := metrics.New()
				cfg := queues.Config{
					Capacity:   waitRingCap,
					MaxThreads: n + 1,
					Mode:       f.Mode,
					Shards:     opts.Shards,
					Ring:       opts.Ring,
					Core:       opts.Core,
					Metrics:    sink,
					Wait:       strat,
				}
				if opts.Capacity > 0 {
					cfg.Capacity = opts.Capacity
				}
				if opts.Emulate {
					cfg.Mode = atomicx.EmulatedFAA
				}
				mops := make([]float64, 0, opts.Reps)
				for rep := 0; rep < opts.Reps; rep++ {
					m, _, fp, err := runBlockingOnce(name, cfg, PointOpts{Threads: n, Ops: opts.Ops})
					if err != nil {
						pt.Err = err
						break
					}
					mops = append(mops, m)
					if fp > pt.FootprintMB {
						pt.FootprintMB = fp
					}
				}
				if pt.Err == nil {
					pt.Mops = stats.Summarize(mops)
					snap := sink.Snapshot()
					pt.Latency = snap.Parked
					hits := snap.Counts[metrics.SpinHit]
					if total := hits + snap.Counts[metrics.SpinMiss]; total > 0 {
						pt.SpinHitRate = float64(hits) / float64(total)
					}
				}
				pts = append(pts, pt)
			}
		}
	}
	return pts
}

// FormatWaiterPoints renders a wait-strategy figure in long format:
// one row per (queue, strategy, waiter count) with throughput, the
// blocking-wait ladder in microseconds, and the spin-hit rate. The
// ladder includes spin-phase hits, so a spin-heavy strategy shows its
// win as a lower p50/p99, not as missing samples.
func FormatWaiterPoints(pts []Point) string {
	out := "queue\twait\twaiters\tMops/s\twait p50(µs)\tp99(µs)\tmax(µs)\tspin-hit\n"
	for _, p := range pts {
		out += fmt.Sprintf("%s\t%s\t%d", p.Queue, p.Wait, p.Threads)
		if p.Err != nil {
			out += "\tn/a\tn/a\tn/a\tn/a\tn/a\n"
			continue
		}
		out += fmt.Sprintf("\t%.3f\t%.1f\t%.1f\t%.1f\t%.2f\n",
			p.Mops.Mean,
			float64(p.Latency.Quantile(0.50))/1e3,
			float64(p.Latency.Quantile(0.99))/1e3,
			float64(p.Latency.Max)/1e3,
			p.SpinHitRate)
	}
	return out
}
