package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/metrics"
)

// traceEvery is the sampling stride of traced calls: every 16th call
// of each kind is timed into an internal/metrics histogram.
const traceEvery = 16

// layerMetrics are the traced suite's metrics. Each names its layer,
// what it measures, and the end-to-end metric it should move, on which
// workload; "bypassed" names the workloads that never reach the layer.
var layerMetrics = []metricDef{
	// wcq: internal/wcq, the index ring and the Figure-2 payload layer.
	{name: "ladder.wcq_ring.ns_per_pair", unit: "ns", better: "lower",
		about: "wcq: pairwise loop on the bare index ring; moves throughput_mtps on queue-pair, unbounded-burst"},
	{name: "ladder.wcq_queue.ns_per_pair", unit: "ns", better: "lower",
		about: "wcq: pairwise loop on wcq.Queue; minus wcq_ring is the payload layer's cost; moves throughput_mtps on queue-pair, unbounded-burst"},
	{name: "wcq.enq_slow_per_op", unit: "count", better: "lower",
		about: "wcq: slow-path enqueues per enqueue on the named workload; moves throughput_mtps on queue-pair, unbounded-burst"},
	{name: "wcq.deq_slow_per_op", unit: "count", better: "lower",
		about: "wcq: slow-path dequeues per dequeue on the named workload; moves throughput_mtps on queue-pair, unbounded-burst"},
	{name: "wcq.threshold_resets_per_op", unit: "count", better: "lower",
		about: "wcq: threshold resets per enqueue or dequeue on the named workload; moves throughput_mtps on queue-pair, unbounded-burst"},
	// ringcore: internal/ringcore.
	{name: "ladder.ringcore.ns_per_pair", unit: "ns", better: "lower",
		about: "ringcore: pairwise loop on ringcore.New(KindWCQ) handles; moves throughput_mtps on queue-pair"},
	// queue: the root package's Queue/Handle.
	{name: "ladder.queue.ns_per_pair", unit: "ns", better: "lower",
		about: "queue: pairwise loop on the public Queue, untraced; moves throughput_mtps on queue-pair"},
	{name: "queue.enqueue_p50_ns", unit: "ns", better: "lower",
		about: "queue: sampled Enqueue call time in traced queue-pair; moves throughput_mtps, latency_p50_us on queue-pair"},
	{name: "queue.enqueue_p99_ns", unit: "ns", better: "lower",
		about: "queue: sampled Enqueue call time in traced queue-pair; moves latency_p99_us on queue-pair"},
	{name: "queue.dequeue_p50_ns", unit: "ns", better: "lower",
		about: "queue: sampled Dequeue call time in traced queue-pair; moves throughput_mtps, latency_p50_us on queue-pair"},
	{name: "queue.dequeue_p99_ns", unit: "ns", better: "lower",
		about: "queue: sampled Dequeue call time in traced queue-pair; moves latency_p99_us on queue-pair"},
	// unbounded: internal/unbounded through UnboundedQueue.
	{name: "unbounded.enq_ns_per_op", unit: "ns", better: "lower",
		about: "unbounded: enqueue-phase wall time per value; moves throughput_mtps on unbounded-burst; bypassed by queue-pair, chan-rpc"},
	{name: "unbounded.deq_ns_per_op", unit: "ns", better: "lower",
		about: "unbounded: drain-phase wall time per value; moves throughput_mtps on unbounded-burst; bypassed by queue-pair, chan-rpc"},
	{name: "ladder.bounded.ns_per_transfer", unit: "ns", better: "lower",
		about: "unbounded (reference): the same bursts on a bounded Queue; enq+deq ns minus this is the unbounded layer's cost"},
	{name: "unbounded.ring_allocs_per_burst", unit: "count", better: "lower",
		about: "unbounded: ring allocations per burst; moves allocs_per_transfer, footprint_* on unbounded-burst; bypassed by queue-pair, chan-rpc"},
	{name: "unbounded.ring_seals_per_burst", unit: "count", better: "lower",
		about: "unbounded: rings sealed full per burst; moves throughput_mtps on unbounded-burst; bypassed by queue-pair, chan-rpc"},
	{name: "unbounded.pool_hit_ratio", unit: "ratio", better: "higher",
		about: "unbounded: pool hits / (pool hits + allocations); moves allocs_per_transfer, throughput_mtps on unbounded-burst"},
	{name: "unbounded.rings_peak", unit: "count", better: "lower",
		about: "unbounded: live rings at the burst top; moves footprint_peak_mb on unbounded-burst; bypassed by queue-pair, chan-rpc"},
	// chan: chan.go and chan_handoff.go.
	{name: "chan.send_p50_ns", unit: "ns", better: "lower",
		about: "chan: sampled Send call time in traced chan-rpc; moves latency_p50_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	{name: "chan.send_p99_ns", unit: "ns", better: "lower",
		about: "chan: sampled Send call time in traced chan-rpc; moves latency_p99_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	{name: "chan.recv_p50_ns", unit: "ns", better: "lower",
		about: "chan: sampled Recv call time, waiting included; moves latency_p50_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	{name: "chan.recv_p99_ns", unit: "ns", better: "lower",
		about: "chan: sampled Recv call time, waiting included; moves latency_p99_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	{name: "chan.handoffs_per_transfer", unit: "count", better: "higher",
		about: "chan: direct handoffs per value; moves latency_p50_us, throughput_mtps on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	{name: "chan.handoff_miss_ratio", unit: "ratio", better: "lower",
		about: "chan: handoff misses / handoff attempts; moves latency_p50_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	// park: internal/park with internal/backoff.
	{name: "park.parks_per_transfer", unit: "count", better: "lower",
		about: "park: parks per value in chan-rpc; moves latency_p50_us, latency_p99_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	{name: "park.wakes_per_transfer", unit: "count", better: "lower",
		about: "park: wake tokens per value in chan-rpc; moves latency_p50_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	{name: "park.spurious_wakes_per_transfer", unit: "count", better: "lower",
		about: "park: wakes drained by an aborting waiter, per value; moves latency_p99_us on chan-rpc"},
	{name: "park.spin_hit_ratio", unit: "ratio", better: "higher",
		about: "park: spin hits / (spin hits + misses); moves latency_p50_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	{name: "park.parked_p50_us", unit: "us", better: "lower",
		about: "park: blocking-wait time p50 from Stats(); moves latency_p50_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	{name: "park.parked_p99_us", unit: "us", better: "lower",
		about: "park: blocking-wait time p99 from Stats(); moves latency_p99_us on chan-rpc; bypassed by queue-pair, unbounded-burst"},
	// References: they should move with the host, never with the code.
	{name: "ladder.scq_queue.ns_per_pair", unit: "ns", better: "lower",
		about: "reference: pairwise loop on scq.Queue, the paper's wCQ vs SCQ comparison"},
	{name: "ladder.gochan.ns_per_pair", unit: "ns", better: "lower",
		about: "reference: pairwise loop on a buffered Go channel; host drift"},
	{name: "ladder.gochan.rtt_p50_us", unit: "us", better: "lower",
		about: "reference: chan-rpc's shape on two Go channels; host drift"},
	// The whole traced run.
	{name: "trace_overhead_pct", unit: "%", better: "lower",
		about: "throughput lost by the named workload when traced (sink + sampled timing) vs untraced"},
	{name: "allocs_per_transfer", unit: "count", better: "lower",
		about: "heap allocations per value in the named workload, untraced; moves setup_s, throughput_mtps"},
}

// traced runs the per-layer suite: the ladder of pairwise rungs, each
// workload traced (metrics sink attached, every traceEvery-th call
// timed), the Go-channel references, and the named workload once more
// untraced for the overhead and allocation figures. Each phase gets an
// equal share of d.
func traced(w workload, seed uint64, d time.Duration, t *totals) (map[string]float64, error) {
	qp, _ := workloadByName("queue-pair")
	rpc, _ := workloadByName("chan-rpc")
	ub, _ := workloadByName("unbounded-burst")
	phases := 11
	if w.name != qp.name {
		phases++ // the named workload's untraced phase
	}
	p := d / time.Duration(phases)
	width := min(interval, p/10)
	var firstErr error
	v := map[string]float64{}
	// play warms and runs one phase. With a sink, the outcome carries
	// what the sink recorded during the timed run; the named workload's
	// untraced phase also counts its heap allocations.
	play := func(wl workload, r rig, err error, sink *metrics.Sink, countAllocs bool) outcome {
		if err != nil {
			firstErr = fmt.Errorf("%s: build: %w", wl.name, err)
			return outcome{rates: []float64{1}}
		}
		t.add(r.run(wl.warm()))
		var before, after runtime.MemStats
		if countAllocs {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		base := sink.Snapshot()
		o := r.run(wl.meters(p, width))
		o.stats = since(sink.Snapshot(), base)
		if countAllocs {
			runtime.ReadMemStats(&after)
			v["allocs_per_transfer"] = ratio(after.Mallocs-before.Mallocs, o.transfers)
		}
		o.summarize()
		t.add(o)
		return o
	}
	var untraced, tracedRun outcome

	// The ladder: the same pairwise loop, one layer added per rung.
	r, err := wcqRingPair(seed)
	v["ladder.wcq_ring.ns_per_pair"] = nsPer(play(qp, r, err, nil, false))
	r, err = wcqQueuePair(seed)
	v["ladder.wcq_queue.ns_per_pair"] = nsPer(play(qp, r, err, nil, false))
	r, err = ringcorePair(seed)
	v["ladder.ringcore.ns_per_pair"] = nsPer(play(qp, r, err, nil, false))
	r, err = queuePair(seed, nil, nil)
	o := play(qp, r, err, nil, w.name == qp.name)
	if w.name == qp.name {
		untraced = o
	}
	v["ladder.queue.ns_per_pair"] = nsPer(o)

	sink, hists := metrics.New(), newPairHists()
	r, err = queuePair(seed, sink, hists)
	o = play(qp, r, err, sink, false)
	enq, deq := hists.snapshots()
	v["queue.enqueue_p50_ns"] = histQuantile(enq, 0.50)
	v["queue.enqueue_p99_ns"] = histQuantile(enq, 0.99)
	v["queue.dequeue_p50_ns"] = histQuantile(deq, 0.50)
	v["queue.dequeue_p99_ns"] = histQuantile(deq, 0.99)
	if w.name == qp.name {
		tracedRun = o
	}

	r, err = scqQueuePair(seed)
	v["ladder.scq_queue.ns_per_pair"] = nsPer(play(qp, r, err, nil, false))
	r, err = goChanPair(seed)
	v["ladder.gochan.ns_per_pair"] = nsPer(play(qp, r, err, nil, false))

	if w.name == rpc.name {
		r, err = chanRPC(seed, nil, nil)
		untraced = play(rpc, r, err, nil, true)
	}
	sink, rh := metrics.New(), newRPCHists()
	r, err = chanRPC(seed, sink, rh)
	o = play(rpc, r, err, sink, false)
	s := o.stats
	send, recv := rh.snapshots()
	v["chan.send_p50_ns"] = histQuantile(send, 0.50)
	v["chan.send_p99_ns"] = histQuantile(send, 0.99)
	v["chan.recv_p50_ns"] = histQuantile(recv, 0.50)
	v["chan.recv_p99_ns"] = histQuantile(recv, 0.99)
	v["chan.handoffs_per_transfer"] = ratio(s.Handoffs(), o.transfers)
	v["chan.handoff_miss_ratio"] = ratio(s.Counts[metrics.HandoffMiss], s.Handoffs()+s.Counts[metrics.HandoffMiss])
	v["park.parks_per_transfer"] = ratio(s.Counts[metrics.Park], o.transfers)
	v["park.wakes_per_transfer"] = ratio(s.Counts[metrics.Wake], o.transfers)
	v["park.spurious_wakes_per_transfer"] = ratio(s.Counts[metrics.SpuriousWake], o.transfers)
	v["park.spin_hit_ratio"] = ratio(s.Counts[metrics.SpinHit], s.Counts[metrics.SpinHit]+s.Counts[metrics.SpinMiss])
	v["park.parked_p50_us"] = histQuantile(s.Parked, 0.50) / 1e3
	v["park.parked_p99_us"] = histQuantile(s.Parked, 0.99) / 1e3
	if w.name == rpc.name {
		tracedRun = o
	}

	r, err = goChanRPC(seed)
	v["ladder.gochan.rtt_p50_us"] = median(play(rpc, r, err, nil, false).p50s) / 1e3

	if w.name == ub.name {
		r, err = unboundedBurst(seed, nil, nil)
		untraced = play(ub, r, err, nil, true)
	}
	sink, hists = metrics.New(), newPairHists()
	r, err = unboundedBurst(seed, sink, hists)
	o = play(ub, r, err, sink, false)
	s = o.stats
	v["unbounded.enq_ns_per_op"] = ratio(uint64(o.enqWall), o.attempted)
	v["unbounded.deq_ns_per_op"] = ratio(uint64(o.deqWall), o.transfers)
	v["unbounded.ring_allocs_per_burst"] = ratio(s.Counts[metrics.RingAlloc], o.bursts)
	v["unbounded.ring_seals_per_burst"] = ratio(s.Counts[metrics.RingSeal], o.bursts)
	v["unbounded.pool_hit_ratio"] = ratio(s.Counts[metrics.RingPoolHit], s.Counts[metrics.RingPoolHit]+s.Counts[metrics.RingAlloc])
	v["unbounded.rings_peak"] = float64(o.rings)
	if w.name == ub.name {
		tracedRun = o
	}
	r, err = boundedBurst(seed)
	v["ladder.bounded.ns_per_transfer"] = nsPer(play(ub, r, err, nil, false))

	stats := tracedRun.stats
	v["wcq.enq_slow_per_op"] = ratio(stats.Counts[metrics.EnqSlowPath], tracedRun.transfers)
	v["wcq.deq_slow_per_op"] = ratio(stats.Counts[metrics.DeqSlowPath], tracedRun.transfers)
	v["wcq.threshold_resets_per_op"] = ratio(stats.Counts[metrics.ThresholdReset], 2*tracedRun.transfers)
	u := median(untraced.rates)
	v["trace_overhead_pct"] = (u - median(tracedRun.rates)) / u * 100
	return v, firstErr
}

// since is what a sink recorded between two snapshots. The parked-time
// histogram keeps the later snapshot's maximum.
func since(now, then metrics.Snapshot) metrics.Snapshot {
	for i := range now.Counts {
		now.Counts[i] -= then.Counts[i]
	}
	for i := range now.Parked.Buckets {
		now.Parked.Buckets[i] -= then.Parked.Buckets[i]
	}
	now.Parked.Count -= then.Parked.Count
	now.Parked.Sum -= then.Parked.Sum
	return now
}

// nsPer converts a run's median rate into nanoseconds per transfer.
func nsPer(o outcome) float64 { return 1e9 / median(o.rates) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
