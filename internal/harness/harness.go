// Package harness reproduces the wCQ paper's benchmark framework
// (§6, originally the YMC test framework extended with SCQ, CRTurn and
// wCQ): workload generators, thread sweeps, throughput and memory
// measurement, and one sweep engine that runs every figure of the
// evaluation as a list of cases.
//
// Differences from the paper's testbed are confined to this package
// and documented in ARCHITECTURE.md: goroutines instead of pinned pthreads,
// runtime heap sampling + cumulative allocation accounting instead of
// malloc probes, and an emulated-F&A mode standing in for PowerPC.
package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/metrics"
	"repro/internal/queueapi"
	"repro/internal/queues"
	"repro/internal/stats"
)

// Workload enumerates the paper's benchmark loops.
type Workload uint8

const (
	// Pairwise: each thread alternates Enqueue and Dequeue in a tight
	// loop (Figs. 11b, 12b).
	Pairwise Workload = iota
	// Mixed: each op is Enqueue or Dequeue with probability 1/2
	// (Figs. 10b, 11c, 12c).
	Mixed
	// EmptyDeq: Dequeue in a tight loop on an empty queue (Figs. 11a,
	// 12a).
	EmptyDeq
)

// String names the workload as the figure tables do.
func (w Workload) String() string {
	switch w {
	case Pairwise:
		return "pairwise"
	case Mixed:
		return "50/50"
	case EmptyDeq:
		return "empty-dequeue"
	}
	return "?"
}

// PointOpts sizes one measurement point. Burst, Rate and Blocking
// select the engine (in that order of precedence); without them the
// point runs the closed-loop workload loop.
type PointOpts struct {
	Threads int
	Ops     int  // total operations across all threads
	Reps    int  // repetitions (the paper uses 10)
	Delays  bool // tiny random delays between ops (memory test)
	Memory  bool // sample heap usage
	// Batch > 1 drives the workload through queueapi.EnqueueBatch /
	// DequeueBatch in chunks of this size (native Batcher when the
	// queue has one, generic fallback otherwise). One batched call
	// counts as Batch operations.
	Batch int
	// Blocking drives the point through the blocking Send/Recv/Close
	// surface instead of the workload loop: Threads is split into
	// producers and consumers by BlockingSplit, producers send,
	// consumers drain until close. Requires a queue whose handles
	// implement queueapi.Waitable. Delays/Memory/Batch are ignored.
	Blocking bool
	// Producers/Consumers, when both positive, pin the role split of
	// the blocking and open-loop engines instead of deriving it from
	// Threads — the handoff figure h1 sweeps this imbalance.
	Producers int
	Consumers int
	// Burst > 0 runs burst/drain cycles of this many values (figure
	// u1) instead of the workload loop.
	Burst int
	// Rate > 0 runs the open-loop engine (figure l1) at this offered
	// load in transfers per second, with Arrival's inter-arrival
	// process and the Producers/Consumers split; each rep's latency
	// histogram merges into the point.
	Rate    float64
	Arrival Arrival
}

// RunPoint measures one queue at one point: opts.Reps runs of the
// engine opts selects, summarized into the fields a wcqbench/v1 point
// carries (throughput min/mean/max, peak memory and footprint, and the
// merged latency ladder of an open-loop point). The caller stamps the
// figure and sweep fields.
func RunPoint(name string, cfg queues.Config, w Workload, opts PointOpts) benchfmt.Point {
	pt := benchfmt.Point{Queue: name, Threads: opts.Threads}
	reps := max(opts.Reps, 1)
	mops := make([]float64, 0, reps)
	var latency metrics.HistogramSnapshot
	for rep := 0; rep < reps; rep++ {
		r, err := once(name, cfg, w, opts)
		if err != nil {
			pt.Err = err.Error()
			return pt
		}
		mops = append(mops, r.mops)
		pt.MemoryMB = max(pt.MemoryMB, r.memMB)
		pt.FootprintMB = max(pt.FootprintMB, r.fpMB)
		pt.OfferedMops = r.offeredMops
		latency.Merge(r.latency)
	}
	s := stats.Summarize(mops)
	pt.MopsMin, pt.MopsMean, pt.MopsMax = s.Min, s.Mean, s.Max
	pt.Latency = benchfmt.NewLatencyUS(latency)
	return pt
}

// result is one timed run of any engine.
type result struct {
	mops, memMB, fpMB float64
	offeredMops       float64                   // open loop only
	latency           metrics.HistogramSnapshot // open loop only
}

// once builds a fresh queue and drives one timed run of the engine
// opts selects.
func once(name string, cfg queues.Config, w Workload, opts PointOpts) (r result, err error) {
	switch {
	case opts.Burst > 0:
		r.mops, r.memMB, r.fpMB, err = runBurstOnce(name, cfg, opts)
	case opts.Rate > 0:
		var ol OpenLoopResult
		ol, err = RunOpenLoop(name, cfg, OpenLoopOpts{
			Producers: opts.Producers, Consumers: opts.Consumers, Ops: opts.Ops, Rate: opts.Rate, Arrival: opts.Arrival,
		})
		r = result{mops: ol.AchievedMops, fpMB: ol.FootprintMB, offeredMops: ol.OfferedMops, latency: ol.Latency}
	case opts.Blocking:
		r.mops, r.memMB, r.fpMB, err = runBlockingOnce(name, cfg, opts)
	default:
		r.mops, r.memMB, r.fpMB, err = runOnce(name, cfg, w, opts)
	}
	return r, err
}

// footprintMB converts a queue's Footprint to the figure unit.
func footprintMB(q queueapi.Queue) float64 { return float64(q.Footprint()) / (1 << 20) }

// runOnce builds a fresh queue and drives one timed run of the
// closed-loop workload.
func runOnce(name string, cfg queues.Config, w Workload, opts PointOpts) (mops, memMB, fpMB float64, err error) {
	if cfg.MaxThreads < opts.Threads+1 {
		cfg.MaxThreads = opts.Threads + 1
	}
	q, err := queues.New(name, cfg)
	if err != nil {
		return 0, 0, 0, err
	}

	var baseline runtime.MemStats
	var sampler *memSampler
	if opts.Memory {
		runtime.GC()
		runtime.ReadMemStats(&baseline)
		sampler = startMemSampler()
	}

	perThread := opts.Ops / opts.Threads
	if perThread == 0 {
		perThread = 1
	}
	var wg sync.WaitGroup
	var barrier sync.WaitGroup
	barrier.Add(1)
	for t := 0; t < opts.Threads; t++ {
		h, herr := q.Handle()
		if herr != nil {
			return 0, 0, 0, herr
		}
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			barrier.Wait()
			rng := seed*2654435761 + 1
			if opts.Batch > 1 {
				runBatched(h, w, perThread, opts, rng)
				return
			}
			for i := 0; i < perThread; i++ {
				switch w {
				case Pairwise:
					h.Enqueue(rng)
					h.Dequeue()
					i++ // a pair is two operations
				case Mixed:
					rng = xorshift(rng)
					if rng&1 == 0 {
						h.Enqueue(rng)
					} else {
						h.Dequeue()
					}
				case EmptyDeq:
					h.Dequeue()
				}
				if opts.Delays {
					rng = xorshift(rng)
					spin(int(rng % 64))
				}
			}
		}(uint64(t) + 1)
	}
	start := time.Now()
	barrier.Done()
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	if opts.Memory {
		peak := sampler.stop()
		var heapMB float64
		if peak > baseline.HeapAlloc {
			heapMB = float64(peak-baseline.HeapAlloc) / (1 << 20)
		}
		// Cumulative static/ring allocation (wCQ/SCQ: fixed; LCRQ/YMC:
		// grows with closed rings / segments) plus dynamic heap growth.
		memMB = float64(q.Footprint())/(1<<20) + heapMB
	}
	return stats.Mops(opts.Ops, elapsed), memMB, footprintMB(q), nil
}

// runBatched is the batched twin of the scalar workload loop: the
// same op mix, issued in chunks of opts.Batch through the queueapi
// batch helpers. Operations are counted like the scalar loop counts
// attempts: each transferred value is one op, and a batch call that
// moves nothing (queue empty/full) still counts as one probe — so
// batched and scalar Mops stay comparable on the empty-heavy
// workloads.
func runBatched(h queueapi.Handle, w Workload, perThread int, opts PointOpts, rng uint64) {
	in := make([]uint64, opts.Batch)
	out := make([]uint64, opts.Batch)
	for i := range in {
		rng = xorshift(rng)
		in[i] = rng
	}
	for i := 0; i < perThread; {
		switch w {
		case Pairwise:
			i += max(queueapi.EnqueueBatch(h, in), 1)
			i += max(queueapi.DequeueBatch(h, out), 1)
		case Mixed:
			rng = xorshift(rng)
			if rng&1 == 0 {
				i += max(queueapi.EnqueueBatch(h, in), 1)
			} else {
				i += max(queueapi.DequeueBatch(h, out), 1)
			}
		case EmptyDeq:
			i += max(queueapi.DequeueBatch(h, out), 1)
		}
		if opts.Delays {
			rng = xorshift(rng)
			spin(int(rng % 64))
		}
	}
}

// xorshift is a tiny per-thread PRNG (no allocation, no locks).
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// spin busy-loops for n iterations — the paper's "tiny random delays".
//
//go:noinline
func spin(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}

// memSampler polls HeapAlloc in the background during a run.
type memSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  atomic.Uint64
}

func startMemSampler() *memSampler {
	s := &memSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak.Load() {
					s.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return s
}

func (s *memSampler) stop() uint64 {
	close(s.stopc)
	<-s.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak.Load() {
		s.peak.Store(ms.HeapAlloc)
	}
	return s.peak.Load()
}
