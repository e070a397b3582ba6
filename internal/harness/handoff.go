package harness

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/stats"
)

// Figure h1 measures the direct handoff: the same blocking workload
// as b1/w1, but with the producer:consumer role split pinned
// explicitly and swept from receiver-heavy (where senders find parked
// receivers and the rendezvous fast path fires constantly) to
// sender-heavy (where the symmetric takeover path carries the load).
// Each point reports throughput, the blocking-wait ladder (the
// wakeup-latency axis a landed handoff shortens), and the handoff hit
// rate — the fraction of attempts that moved a value past the ring.
var (
	handoffQueues = []string{"Chan", "ChanSharded"}
	// handoffSplits sweeps the imbalance at 8 total goroutines: 1:7 and
	// 2:6 are receiver-heavy (the rendezvous sweet spot), 4:4 balanced,
	// 6:2 sender-heavy (the takeover side).
	handoffSplits = [][2]int{{1, 7}, {2, 6}, {4, 4}, {6, 2}}
)

// handoffRingCap pins h1's ring nearly shut: the figure is about
// rendezvous at the empty/full boundaries, and with only a handful of
// slots every transferred value interacts with a boundary — parked
// peers on both sides, which is exactly the regime the handoff path
// exists for. A deeper ring (w1's 64, say) lets the workload cruise
// through the buffer in ring-only bursts and the handoff path barely
// runs. The sharded queue gets double: its capacity divides
// across shards, and each shard ring needs at least two slots.
func handoffRingCap(queue string) uint64 {
	if queue == "ChanSharded" {
		return 1 << 3
	}
	return 1 << 2
}

// runHandoff executes a handoff figure: for each queue, sweep the
// explicit producer:consumer splits. Like w1, each point gets a fresh
// metrics sink regardless of RunOpts.Metrics — the hit rate and wait
// ladder ARE the figure — with the sink accumulating across reps.
// Each queue gets one untimed warmup run before the timed reps: the
// first runs in a fresh process land 10-15% low (heap growth,
// scheduler warmup), and without the warmup that penalty falls
// entirely on the first split.
func (f Figure) runHandoff(opts RunOpts, qs []string) []Point {
	var pts []Point
	for _, name := range qs {
		warm := false
		for _, split := range f.Splits {
			producers, consumers := split[0], split[1]
			total := producers + consumers
			if opts.MaxThreads > 0 && total > opts.MaxThreads {
				continue
			}
			pt := Point{Queue: name, Threads: total, Producers: producers, Consumers: consumers}
			sink := metrics.New()
			cfg := queues.Config{
				Capacity:   handoffRingCap(name),
				MaxThreads: total + 1,
				Mode:       f.Mode,
				Shards:     opts.Shards,
				Ring:       opts.Ring,
				Core:       opts.Core,
				Metrics:    sink,
			}
			if opts.Capacity > 0 {
				cfg.Capacity = opts.Capacity
			}
			if opts.Emulate {
				cfg.Mode = atomicx.EmulatedFAA
			}
			po := PointOpts{Threads: total, Ops: opts.Ops, Producers: producers, Consumers: consumers}
			if !warm {
				// Throwaway sink: the warmup must not pollute the first
				// point's hit rate or wait ladder.
				wcfg := cfg
				wcfg.Metrics = metrics.New()
				runBlockingOnce(name, wcfg, po)
				warm = true
			}
			mops := make([]float64, 0, opts.Reps)
			for rep := 0; rep < opts.Reps; rep++ {
				m, _, fp, err := runBlockingOnce(name, cfg, po)
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
				pt.HandoffRate = snap.HandoffRate()
			}
			pts = append(pts, pt)
		}
	}
	return pts
}

// FormatHandoffPoints renders a handoff figure in long format: one row
// per (queue, split) with throughput, the blocking wait ladder in
// microseconds, and the handoff hit rate.
func FormatHandoffPoints(pts []Point) string {
	out := "queue\tsplit\tMops/s\twait p50(µs)\tp99(µs)\tmax(µs)\thit-rate\n"
	for _, p := range pts {
		out += fmt.Sprintf("%s\t%d:%d", p.Queue, p.Producers, p.Consumers)
		if p.Err != nil {
			out += "\tn/a\tn/a\tn/a\tn/a\tn/a\n"
			continue
		}
		out += fmt.Sprintf("\t%.3f\t%.1f\t%.1f\t%.1f\t%.2f\n",
			p.Mops.Mean,
			float64(p.Latency.Quantile(0.50))/1e3,
			float64(p.Latency.Quantile(0.99))/1e3,
			float64(p.Latency.Max)/1e3,
			p.HandoffRate)
	}
	return out
}
