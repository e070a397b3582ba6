package harness

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/atomicx"
	"repro/internal/backoff"
	"repro/internal/benchfmt"
	"repro/internal/metrics"
	"repro/internal/queues"
)

// Case is one point of a figure's sweep: the goroutine count and
// whatever else the figure varies. A case with a Burst runs the
// burst/drain engine, one with a Load the open-loop engine; the rest
// run the figure's closed-loop or blocking workload.
type Case struct {
	Threads int
	Burst   int     // values per burst/drain cycle (u1)
	Batch   int     // batch size; > 1 drives the native batch path (p2, -batch)
	Load    float64 // offered load as a fraction of calibrated capacity (l1)
	Arrival Arrival // inter-arrival process of an open-loop case
	Wait    string  // blocking-wait strategy, backoff.ByName vocabulary (w1)
	// Producers/Consumers pin the blocking role split (h1); zero
	// derives it from Threads.
	Producers int
	Consumers int
}

// Figure describes one plot of the paper's evaluation (§6) and how to
// regenerate it: the queues it compares and the list of cases it runs
// each of them at.
type Figure struct {
	ID       string // e.g. "11b"
	Title    string
	Workload Workload
	Mode     atomicx.Mode
	Queues   []string
	Cases    []Case
	Delays   bool // tiny random delays (memory test)
	Memory   bool // report MB instead of Mops
	Blocking bool // drive the blocking Send/Recv/Close surface (Chan facades)
	// capacity is the ring size per queue (nil: the paper's 2^16).
	capacity func(queue string) uint64
	// ladder gives every point its own metrics sink and reports its
	// blocking-wait ladder, plus the spin-hit rate of a case that pins
	// a wait strategy and the handoff rate of one that pins a split.
	ladder bool
	// warmup runs one untimed pass per queue before its first case.
	warmup bool
	table  layout
}

// layout is how a figure's table reads: one row per case, and per
// queue the columns in cols.
type layout struct {
	row   string                    // header of the row-label column
	label func(Case) string         // a case's row label
	cols  []column                  // per-queue columns
	note  func(Figure, Case) string // the title's parenthetical, from the first case
	// clamp marks a fixed-thread figure: -maxthreads lowers each
	// case's thread count instead of dropping the case.
	clamp bool
}

// column is one per-queue column: its header (appended to the queue
// name) and its cell.
type column struct {
	head string
	cell func(benchfmt.Point) string
}

func mopsCell(p benchfmt.Point) string { return fmt.Sprintf("%.3f", p.MopsMean) }

// hitRateCell prints a point's handoff hit rate, or n/a when the point
// made no handoff attempt.
func hitRateCell(p benchfmt.Point) string {
	if p.HandoffRate == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", *p.HandoffRate)
}

// ladderCell prints one rung of a point's latency ladder in µs.
func ladderCell(rung func(*benchfmt.LatencyUS) float64) func(benchfmt.Point) string {
	return func(p benchfmt.Point) string {
		if p.Latency == nil {
			return "n/a"
		}
		return fmt.Sprintf("%.1f", rung(p.Latency))
	}
}

var (
	ladderCols = []column{
		{" Mops/s", mopsCell},
		{" p50(µs)", ladderCell(func(l *benchfmt.LatencyUS) float64 { return l.P50 })},
		{" p99(µs)", ladderCell(func(l *benchfmt.LatencyUS) float64 { return l.P99 })},
		{" max(µs)", ladderCell(func(l *benchfmt.LatencyUS) float64 { return l.Max })},
	}
	byThreads = layout{
		row:   "threads",
		label: func(c Case) string { return strconv.Itoa(c.Threads) },
		cols:  []column{{"", mopsCell}},
		note:  func(f Figure, _ Case) string { return fmt.Sprintf("%s workload, %s", f.Workload, f.Mode) },
	}
	byBurst = layout{
		row:   "burst",
		label: func(c Case) string { return strconv.Itoa(c.Burst) },
		cols: []column{{" Mops", mopsCell},
			{" peakMB", func(p benchfmt.Point) string { return fmt.Sprintf("%.3f", p.MemoryMB) }}},
		note:  func(f Figure, c Case) string { return fmt.Sprintf("%d threads, %s", c.Threads, f.Mode) },
		clamp: true,
	}
	byBatch = layout{
		row:   "batch",
		label: func(c Case) string { return strconv.Itoa(c.Batch) },
		cols:  []column{{"", mopsCell}},
		note: func(f Figure, c Case) string {
			return fmt.Sprintf("%d threads, %s workload, %s", c.Threads, f.Workload, f.Mode)
		},
		clamp: true,
	}
	byLoad = layout{
		row:   "load",
		label: func(c Case) string { return fmt.Sprintf("%.2f", c.Load) },
		cols: []column{{" p99(µs)", ladderCell(func(l *benchfmt.LatencyUS) float64 { return l.P99 })},
			{" Mxfer/s", mopsCell}},
		note: func(f Figure, c Case) string {
			p, q := OpenLoopSplit(c.Threads)
			return fmt.Sprintf("%d producers / %d consumers, %s arrivals, %s", p, q, c.Arrival, f.Mode)
		},
		clamp: true,
	}
	byWaiters = layout{
		row:   "wait/waiters",
		label: func(c Case) string { return fmt.Sprintf("%s/%d", c.Wait, c.Threads) },
		cols: append(ladderCols[:len(ladderCols):len(ladderCols)],
			column{" spin-hit", func(p benchfmt.Point) string { return fmt.Sprintf("%.2f", p.SpinHitRate) }}),
		note: func(f Figure, _ Case) string { return fmt.Sprintf("1:3 send/recv split, %s", f.Mode) },
	}
	bySplit = layout{
		row:   "split",
		label: func(c Case) string { return fmt.Sprintf("%d:%d", c.Producers, c.Consumers) },
		cols: append(ladderCols[:len(ladderCols):len(ladderCols)],
			column{" hit-rate", hitRateCell}),
		note: func(f Figure, _ Case) string { return f.Mode.String() },
	}
)

// Thread sweeps from the paper: x86 peaks at one 18-core socket then
// oversubscribes; PowerPC uses 64 logical cores.
var (
	x86Threads = []int{1, 2, 4, 8, 18, 36, 72, 144}
	ppcThreads = []int{1, 2, 4, 8, 16, 32, 64}
)

// x86Queues is the Fig. 10/11 line-up; ppcQueues drops LCRQ (needs
// CAS2), exactly as the paper does for PowerPC. scaleQueues is the
// post-paper scale-out line-up: the single-ring queues against their
// sharded composition, with FAA as the throughput ceiling.
// blockingQueues is the figure b1 line-up: the Chan facade over each
// supported backend. blockingThreads starts at 2 so every point has
// at least one producer and one consumer.
// burstSizes and burstRingCap shape figure u1: bursts from 4x to
// 256x the ring capacity, so every point exercises real outer-list
// turnover and the memory axis spans two orders of magnitude.
var (
	x86Queues       = []string{"FAA", "wCQ", "YMC", "CCQueue", "SCQ", "CRTurn", "MSQueue", "LCRQ"}
	ppcQueues       = []string{"FAA", "wCQ", "YMC", "CCQueue", "SCQ", "CRTurn", "MSQueue"}
	scaleQueues     = []string{"FAA", "wCQ", "SCQ", "Sharded"}
	blockingQueues  = queues.BlockingQueues() // keep the b1 line-up in lockstep with the registry
	blockingThreads = []int{2, 4, 8, 18, 36, 72}
	unboundedQueues = queues.UnboundedQueues() // keep the u1 line-up in lockstep with the registry
	burstSizes      = []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	burstRingCap    = uint64(1 << 10)
	// batchQueues and batchSizes shape figure p2: every core with a
	// native single-F&A batch reservation, swept from the scalar loop
	// (batch 1) to far past the amortization knee.
	batchQueues = []string{"wCQ", "SCQ", "Sharded", "UWCQ"}
	batchSizes  = []int{1, 8, 32, 128}
	// openLoopQueues and loadFractions shape figure l1: every blocking
	// facade (their parked consumers are what open-loop latency is
	// about) plus the bare wCQ and SCQ rings on the nonblocking engine
	// path, swept from a quarter of calibrated capacity to just past
	// the saturation knee at 1.0.
	openLoopQueues = append(queues.BlockingQueues(), "wCQ", "SCQ")
	loadFractions  = []float64{0.25, 0.5, 0.75, 0.9, 1.1}
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

// ringCap is a capacity function that gives every queue the same size.
func ringCap(n uint64) func(string) uint64 { return func(string) uint64 { return n } }

// threadCases is a thread sweep: one case per goroutine count.
func threadCases(threads []int) []Case {
	cs := make([]Case, len(threads))
	for i, t := range threads {
		cs[i] = Case{Threads: t}
	}
	return cs
}

// Figures returns every figure of the evaluation in paper order.
func Figures() []Figure {
	var bursts, batches, loads, waits, splits []Case
	for _, b := range burstSizes {
		bursts = append(bursts, Case{Threads: 4, Burst: b})
	}
	for _, b := range batchSizes {
		batches = append(batches, Case{Threads: 4, Batch: b})
	}
	for _, l := range loadFractions {
		loads = append(loads, Case{Threads: 4, Load: l, Arrival: Poisson})
	}
	for _, w := range waitStrategies {
		for _, n := range waiterCounts {
			waits = append(waits, Case{Threads: n, Wait: w})
		}
	}
	for _, s := range handoffSplits {
		splits = append(splits, Case{Threads: s[0] + s[1], Producers: s[0], Consumers: s[1]})
	}
	return []Figure{
		{ID: "10a", Title: "Memory usage, x86 (MB)", Workload: Mixed, Cases: threadCases(x86Threads),
			Mode: atomicx.NativeFAA, Queues: x86Queues, Delays: true, Memory: true, table: byThreads},
		{ID: "10b", Title: "Memory test throughput, x86 (Mops/s)", Workload: Mixed, Cases: threadCases(x86Threads),
			Mode: atomicx.NativeFAA, Queues: x86Queues, Delays: true, table: byThreads},
		{ID: "11a", Title: "Empty dequeue, x86 (Mops/s)", Workload: EmptyDeq, Cases: threadCases(x86Threads),
			Mode: atomicx.NativeFAA, Queues: x86Queues, table: byThreads},
		{ID: "11b", Title: "Pairwise enqueue-dequeue, x86 (Mops/s)", Workload: Pairwise, Cases: threadCases(x86Threads),
			Mode: atomicx.NativeFAA, Queues: x86Queues, table: byThreads},
		{ID: "11c", Title: "50%/50% enqueue-dequeue, x86 (Mops/s)", Workload: Mixed, Cases: threadCases(x86Threads),
			Mode: atomicx.NativeFAA, Queues: x86Queues, table: byThreads},
		{ID: "12a", Title: "Empty dequeue, emulated PowerPC (Mops/s)", Workload: EmptyDeq, Cases: threadCases(ppcThreads),
			Mode: atomicx.EmulatedFAA, Queues: ppcQueues, table: byThreads},
		{ID: "12b", Title: "Pairwise enqueue-dequeue, emulated PowerPC (Mops/s)", Workload: Pairwise, Cases: threadCases(ppcThreads),
			Mode: atomicx.EmulatedFAA, Queues: ppcQueues, table: byThreads},
		{ID: "12c", Title: "50%/50% enqueue-dequeue, emulated PowerPC (Mops/s)", Workload: Mixed, Cases: threadCases(ppcThreads),
			Mode: atomicx.EmulatedFAA, Queues: ppcQueues, table: byThreads},
		// Beyond the paper: the sharded composition against the
		// single-ring queues it is built from (use -shards / -batch to
		// sweep the new dimensions).
		{ID: "s1", Title: "Sharded scale-out, pairwise (Mops/s)", Workload: Pairwise, Cases: threadCases(x86Threads),
			Mode: atomicx.NativeFAA, Queues: scaleQueues, table: byThreads},
		{ID: "s2", Title: "Sharded scale-out, 50%/50% (Mops/s)", Workload: Mixed, Cases: threadCases(x86Threads),
			Mode: atomicx.NativeFAA, Queues: scaleQueues, table: byThreads},
		// Blocking facade: throughput under a 1:3 producer:consumer
		// imbalance where idle consumers park instead of spinning
		// (cmd/wcqbench -blocking also reports wakeup latency).
		{ID: "b1", Title: "Blocking Chan, imbalanced 1:3 send/recv (Mops/s)", Workload: Pairwise, Cases: threadCases(blockingThreads),
			Mode: atomicx.NativeFAA, Queues: blockingQueues, Blocking: true, table: byThreads},
		// Unbounded burst absorption: enqueue a burst, sample the peak
		// live Footprint, drain. Sweeps burst size (not threads) and
		// reports both throughput and peak memory per point.
		{ID: "u1", Title: "Unbounded burst/drain: throughput and peak footprint vs burst size", Workload: Pairwise,
			Cases: bursts, Mode: atomicx.NativeFAA, Queues: unboundedQueues,
			capacity: ringCap(burstRingCap), table: byBurst}, // per-ring for the unbounded line-up
		// Native batch reservation: per-element throughput vs batch
		// size. Batch 1 is the scalar path; the larger sizes pay one
		// Head/Tail F&A per batch instead of one per element, and Mops
		// counts elements, so the column reads as the amortization win.
		{ID: "p2", Title: "Native batch reservation: per-element throughput vs batch size (Mops/s)", Workload: Pairwise,
			Cases: batches, Mode: atomicx.NativeFAA, Queues: batchQueues, table: byBatch},
		// Open-loop latency vs offered load: Poisson arrivals at a
		// fraction of each queue's calibrated capacity, latency charged
		// from intended send time (coordinated-omission-safe). The knee
		// sits at 1.0 by construction, so the same fractions are
		// comparable across queues and hosts of any speed.
		{ID: "l1", Title: "Open-loop latency vs offered load (µs, CO-safe)", Workload: Pairwise,
			Cases: loads, Mode: atomicx.NativeFAA, Queues: openLoopQueues, table: byLoad},
		// Wait strategies under waiter pressure: immediate park vs
		// adaptive spin-then-park, from a handful of goroutines to deep
		// oversubscription, with the blocking-wait ladder and spin-hit
		// rate per point.
		{ID: "w1", Title: "Wait strategies vs waiter count: throughput, wait ladder, spin-hit rate", Workload: Pairwise,
			Cases: waits, Mode: atomicx.NativeFAA, Queues: waitQueues, Blocking: true,
			capacity: ringCap(waitRingCap), ladder: true, table: byWaiters},
		// Direct handoff: the same blocking workload swept over the
		// producer:consumer imbalance. Points carry the wait ladder
		// (wakeup latency) and the handoff hit rate. Each queue gets
		// one untimed warmup run: the first runs in a fresh process
		// land 10-15% low (heap growth, scheduler warmup), and without
		// it that penalty falls entirely on the first split.
		{ID: "h1", Title: "Direct handoff vs producer:consumer imbalance: throughput, wait ladder, hit rate", Workload: Pairwise,
			Cases: splits, Mode: atomicx.NativeFAA, Queues: handoffQueues, Blocking: true,
			capacity: handoffRingCap, ladder: true, warmup: true, table: bySplit},
	}
}

// FigureByID looks a figure up ("10a" ... "h1").
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("harness: unknown figure %q", id)
}

// Resweep rebuilds f's case list for the command-line sweep overrides
// (empty or DefaultArrival keeps the figure's own): loads and arrival
// re-sweep an open-loop figure, waiters every strategy of a
// wait-strategy figure. Other figures come back unchanged.
func (f Figure) Resweep(loads []float64, arrival Arrival, waiters []int) Figure {
	var cs []Case
	switch {
	case len(f.Cases) > 0 && f.Cases[0].Load > 0 && len(loads) > 0:
		for _, l := range loads {
			c := f.Cases[0]
			c.Load = l
			cs = append(cs, c)
		}
	case len(f.Cases) > 0 && f.Cases[0].Wait != "" && len(waiters) > 0:
		seen := map[string]bool{}
		for _, c := range f.Cases {
			if !seen[c.Wait] {
				seen[c.Wait] = true
				for _, n := range waiters {
					c.Threads = n
					cs = append(cs, c)
				}
			}
		}
	default:
		cs = append(cs, f.Cases...)
	}
	for i := range cs {
		if cs[i].Load > 0 && arrival != DefaultArrival {
			cs[i].Arrival = arrival
		}
	}
	f.Cases = cs
	return f
}

// RunOpts scales a figure run. The paper uses 10M ops x 10 reps per
// point; the defaults here are sized for a small machine and can be
// raised via flags.
type RunOpts struct {
	Ops        int
	Reps       int
	MaxThreads int // truncate the sweep (0 = full paper sweep)
	Queues     []string
	Batch      int // batch size for the closed-loop thread sweeps; > 1 drives the batched loop
	// Config is the run's base queue configuration (what
	// clihelper.Flags.Config builds). Its Shards, Ring, Core and Wait
	// reach every point; an emulated Mode overrides each figure's; a
	// nonzero Capacity overrides each figure's ring size; and a
	// non-nil Metrics gives every point a fresh sink of its own.
	Config queues.Config
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Ops <= 0 {
		o.Ops = 200_000
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	return o
}

// queues is the figure's line-up narrowed to opts.Queues.
func (f Figure) queues(opts RunOpts) []string {
	if len(opts.Queues) == 0 {
		return f.Queues
	}
	set := map[string]bool{}
	for _, q := range opts.Queues {
		set[q] = true
	}
	var out []string
	for _, q := range f.Queues {
		if set[q] {
			out = append(out, q)
		}
	}
	return out
}

// cases is the case list a run executes: -maxthreads drops the cases
// of a sweep past it and clamps a fixed-thread figure's, and -batch
// reaches the closed-loop cases that do not sweep batch themselves.
func (f Figure) cases(opts RunOpts) []Case {
	var cs []Case
	for _, c := range f.Cases {
		if opts.MaxThreads > 0 && c.Threads > opts.MaxThreads {
			if !f.table.clamp {
				continue
			}
			c.Threads = opts.MaxThreads
		}
		if c.Batch == 0 && c.Burst == 0 && c.Load == 0 && !f.Blocking {
			c.Batch = opts.Batch
		}
		cs = append(cs, c)
	}
	return cs
}

// Config builds the queue configuration of one (queue, case) point:
// the run's base configuration with the figure's ring size and F&A
// mode where the base leaves them open, a handle budget for the case,
// the case's wait strategy, and a fresh metrics sink when the run or
// the figure wants one.
func (f Figure) Config(queue string, c Case, opts RunOpts) (queues.Config, error) {
	cfg := opts.Config
	if cfg.Capacity == 0 && f.capacity != nil {
		cfg.Capacity = f.capacity(queue)
	}
	if cfg.Mode != atomicx.EmulatedFAA {
		cfg.Mode = f.Mode
	}
	cfg.MaxThreads = c.Threads + 1
	if cfg.Metrics != nil || f.ladder {
		cfg.Metrics = metrics.New()
	}
	if c.Wait != "" {
		w, err := backoff.ByName(c.Wait)
		if err != nil {
			return cfg, err
		}
		cfg.Wait = w
	}
	return cfg, nil
}

// Run executes the figure, every queue at every case, and returns the
// points in queue-major order. Unavailable queues (LCRQ under
// emulation) produce points with Err set, rendered as "n/a" like the
// missing LCRQ lines in the paper's PowerPC plots.
func (f Figure) Run(opts RunOpts) []benchfmt.Point {
	opts = opts.withDefaults()
	cases := f.cases(opts)
	var pts []benchfmt.Point
	for _, name := range f.queues(opts) {
		var capacity float64 // open-loop cases: calibrated once per queue
		var calErr error
		warm := !f.warmup
		for _, c := range cases {
			cfg, err := f.Config(name, c, opts)
			po := PointOpts{
				Threads: c.Threads, Ops: opts.Ops, Reps: opts.Reps,
				Delays: f.Delays, Memory: f.Memory, Blocking: f.Blocking,
				Batch: c.Batch, Burst: c.Burst, Arrival: c.Arrival,
				Producers: c.Producers, Consumers: c.Consumers,
			}
			if err == nil && c.Load > 0 {
				po.Producers, po.Consumers = OpenLoopSplit(c.Threads)
				if capacity == 0 && calErr == nil {
					capacity, calErr = CalibrateCapacity(name, cfg, po.Producers, po.Consumers, opts.Ops)
				}
				po.Rate, err = c.Load*capacity, calErr
			}
			if err == nil && !warm {
				// A config of its own (it builds, as cfg did), so the
				// warmup stays out of the point's sink; a warmup error
				// recurs in the timed reps, which report it.
				wcfg, _ := f.Config(name, c, opts)
				_, _ = once(name, wcfg, f.Workload, po)
				warm = true
			}
			pt := benchfmt.Point{Queue: name, Threads: c.Threads}
			if err != nil {
				pt.Err = err.Error()
			} else {
				pt = RunPoint(name, cfg, f.Workload, po)
			}
			pt.Figure, pt.Batch, pt.Burst, pt.Load = f.ID, c.Batch, c.Burst, c.Load
			pt.Wait, pt.Producers, pt.Consumers = c.Wait, c.Producers, c.Consumers
			if f.ladder && pt.Err == "" {
				ladderStats(&pt, c, cfg.Metrics.Snapshot())
			}
			pts = append(pts, pt)
		}
	}
	return pts
}

// ladderStats fills a ladder figure's point from the run's metrics: the
// blocking-wait ladder, the spin-hit rate of a wait-strategy case and
// the handoff hit rate of a split case (left nil when no handoff was
// attempted).
func ladderStats(pt *benchfmt.Point, c Case, snap metrics.Snapshot) {
	pt.Latency = benchfmt.NewLatencyUS(snap.Parked)
	if hits := snap.Counts[metrics.SpinHit]; c.Wait != "" && hits > 0 {
		pt.SpinHitRate = float64(hits) / float64(hits+snap.Counts[metrics.SpinMiss])
	}
	if rate, ok := snap.HandoffRate(); ok && c.Producers > 0 {
		pt.HandoffRate = &rate
	}
}

// Render writes the figure's title line and table to w: one row per
// case of the run, and per queue the figure's columns ("n/a" where the
// queue has no point or an errored one).
func (f Figure) Render(w io.Writer, pts []benchfmt.Point, opts RunOpts) {
	cases := f.cases(opts)
	qs := f.queues(opts)
	var first Case
	if len(cases) > 0 {
		first = cases[0]
	}
	cols := f.table.cols
	if f.Memory {
		cols = []column{{"", func(p benchfmt.Point) string { return fmt.Sprintf("%.2f", p.MemoryMB) }}}
	}
	type key struct {
		queue string
		c     Case
	}
	byKey := map[key]benchfmt.Point{}
	for _, p := range pts {
		byKey[key{p.Queue, Case{Threads: p.Threads, Burst: p.Burst, Batch: p.Batch, Load: p.Load,
			Wait: p.Wait, Producers: p.Producers, Consumers: p.Consumers}}] = p
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s (%s)\n%s", f.ID, f.Title, f.table.note(f, first), f.table.row)
	for _, q := range qs {
		for _, col := range cols {
			fmt.Fprintf(&b, "\t%s%s", q, col.head)
		}
	}
	b.WriteString("\n")
	for _, c := range cases {
		b.WriteString(f.table.label(c))
		c.Arrival = 0 // points do not record it
		for _, q := range qs {
			p, ok := byKey[key{q, c}]
			for _, col := range cols {
				if !ok || p.Err != "" {
					b.WriteString("\tn/a")
				} else {
					b.WriteString("\t" + col.cell(p))
				}
			}
		}
		b.WriteString("\n")
	}
	io.WriteString(w, b.String())
}
