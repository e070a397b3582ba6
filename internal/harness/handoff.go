package harness

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/stats"
)

// Figure h1 is the direct-handoff A/B: the same blocking workload as
// b1/w1, but with the producer:consumer role split pinned explicitly
// and swept from receiver-heavy (where senders find parked receivers
// and the rendezvous fast path fires constantly) to sender-heavy
// (where the symmetric takeover path carries the load), crossed with
// the handoff setting on vs off. Each point reports throughput, the
// blocking-wait ladder (the wakeup-latency axis a landed handoff
// shortens), and the handoff hit rate — the fraction of attempts that
// moved a value past the ring.
var (
	handoffQueues = []string{"Chan", "ChanSharded"}
	// handoffSplits sweeps the imbalance at 8 total goroutines: 1:7 and
	// 2:6 are receiver-heavy (the rendezvous sweet spot), 4:4 balanced,
	// 6:2 sender-heavy (the takeover side).
	handoffSplits   = [][2]int{{1, 7}, {2, 6}, {4, 4}, {6, 2}}
	handoffSettings = []string{"on", "off"}
)

// handoffRingCap pins h1's ring nearly shut: the figure is about
// rendezvous at the empty/full boundaries, and with only a handful of
// slots every transferred value interacts with a boundary — parked
// peers on both sides, which is exactly the regime the handoff path
// exists for. A deeper ring (w1's 64, say) lets the workload cruise
// through the buffer in ring-only bursts and the A/B degenerates to
// noise vs noise. The sharded queue gets double: its capacity divides
// across shards, and each shard ring needs at least two slots.
func handoffRingCap(queue string) uint64 {
	if queue == "ChanSharded" {
		return 1 << 3
	}
	return 1 << 2
}

// runHandoff executes a handoff figure: for each queue, sweep the
// explicit producer:consumer splits crossed with the handoff settings.
// Like w1, each point gets a fresh metrics sink regardless of
// RunOpts.Metrics — the hit rate and wait ladder ARE the figure — with
// the sink accumulating across reps.
//
// Two measurement-hygiene rules keep the A/B honest on a noisy host.
// First, the settings are interleaved: cells are ordered split-major
// with the on/off pair adjacent, and every rep cycle contributes one
// run to every cell, so slow drift (thermal, another tenant, GC
// pacing) lands on both arms equally instead of biasing whichever arm
// runs first. Second, each queue gets one untimed warmup run before
// the timed reps: the first runs in a fresh process land 10-15% low
// (heap growth, scheduler warmup), and without the warmup that
// penalty falls entirely on whichever cell happens to run first.
func (f Figure) runHandoff(opts RunOpts, qs []string) []Point {
	type cell struct {
		pt   Point
		cfg  queues.Config
		sink *metrics.Sink
		mops []float64
	}
	var pts []Point
	for _, name := range qs {
		var cells []*cell
		for _, split := range f.Splits {
			producers, consumers := split[0], split[1]
			total := producers + consumers
			if opts.MaxThreads > 0 && total > opts.MaxThreads {
				continue
			}
			for _, hname := range f.Handoffs {
				mode, merr := queues.HandoffByName(hname)
				cl := &cell{pt: Point{Queue: name, Threads: total,
					Producers: producers, Consumers: consumers, Handoff: hname}}
				if merr != nil {
					cl.pt.Err = merr
					cells = append(cells, cl)
					continue
				}
				cl.sink = metrics.New()
				cl.cfg = queues.Config{
					Capacity:   handoffRingCap(name),
					MaxThreads: total + 1,
					Mode:       f.Mode,
					Shards:     opts.Shards,
					Ring:       opts.Ring,
					Core:       opts.Core,
					Metrics:    cl.sink,
					Handoff:    mode,
				}
				if opts.Capacity > 0 {
					cl.cfg.Capacity = opts.Capacity
				}
				if opts.Emulate {
					cl.cfg.Mode = atomicx.EmulatedFAA
				}
				cl.mops = make([]float64, 0, opts.Reps)
				cells = append(cells, cl)
			}
		}
		for _, cl := range cells {
			if cl.pt.Err == nil {
				// Throwaway sink: the warmup must not pollute the first
				// cell's hit rate or wait ladder.
				wcfg := cl.cfg
				wcfg.Metrics = metrics.New()
				runBlockingOnce(name, wcfg, PointOpts{
					Threads:   cl.pt.Threads,
					Ops:       opts.Ops,
					Producers: cl.pt.Producers,
					Consumers: cl.pt.Consumers,
				})
				break
			}
		}
		for rep := 0; rep < opts.Reps; rep++ {
			for _, cl := range cells {
				if cl.pt.Err != nil {
					continue
				}
				m, _, fp, err := runBlockingOnce(name, cl.cfg, PointOpts{
					Threads:   cl.pt.Threads,
					Ops:       opts.Ops,
					Producers: cl.pt.Producers,
					Consumers: cl.pt.Consumers,
				})
				if err != nil {
					cl.pt.Err = err
					continue
				}
				cl.mops = append(cl.mops, m)
				if fp > cl.pt.FootprintMB {
					cl.pt.FootprintMB = fp
				}
			}
		}
		for _, cl := range cells {
			if cl.pt.Err == nil {
				cl.pt.Mops = stats.Summarize(cl.mops)
				snap := cl.sink.Snapshot()
				cl.pt.Latency = snap.Parked
				cl.pt.HandoffRate = snap.HandoffRate()
			}
			pts = append(pts, cl.pt)
		}
	}
	return pts
}

// FormatHandoffPoints renders a handoff figure in long format: one row
// per (queue, handoff setting, split) with throughput, the blocking
// wait ladder in microseconds, and the handoff hit rate. Reading an
// on/off row pair top to bottom is the A/B: throughput up, wait ladder
// down, hit rate only meaningful on the "on" rows.
func FormatHandoffPoints(pts []Point) string {
	out := "queue\thandoff\tsplit\tMops/s\twait p50(µs)\tp99(µs)\tmax(µs)\thit-rate\n"
	for _, p := range pts {
		out += fmt.Sprintf("%s\t%s\t%d:%d", p.Queue, p.Handoff, p.Producers, p.Consumers)
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
