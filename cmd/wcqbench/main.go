// Command wcqbench regenerates the tables behind every figure of the
// wCQ paper's evaluation (SPAA '22, §6, Figs. 10-12) and the
// post-paper figures: s1/s2 sharded scale-out, b1 blocking facade, u1
// unbounded burst/drain, p2 native batch reservation, l1 open-loop
// latency, w1 wait strategies and h1 direct handoff.
//
// Usage:
//
//	wcqbench -figure 11b                 # one figure
//	wcqbench -figure all -ops 1000000    # the full evaluation
//	wcqbench -figure 10a -queues wCQ,SCQ,LCRQ
//	wcqbench -figure all -record EXPERIMENTS.md
//	wcqbench -figure s1 -shards 8        # sharded scale-out sweep
//	wcqbench -figure s2 -batch 32        # batched 50/50 workload
//	wcqbench -blocking                   # blocking figures + wakeup latency
//	wcqbench -figure b1 -wait park       # blocking figure under one wait strategy
//	wcqbench -figure u1                  # unbounded burst/drain + peak footprint
//	wcqbench -figure p2                  # native batch reservation sweep
//	wcqbench -figure p2 -smoke-batch     # CI smoke: batch=32 must beat scalar
//	wcqbench -figure l1                  # open-loop latency vs offered load
//	wcqbench -figure l1 -loads 0.25,0.9 -arrival fixed
//	wcqbench -figure l1 -gate BENCH_queue.json   # CI: p99/footprint regression gate
//	wcqbench -figure w1                  # wait strategies vs waiter count
//	wcqbench -figure w1 -waiters 8,64 -smoke-wait   # CI: adaptive vs park, same run
//	wcqbench -figure h1                  # direct handoff vs role imbalance
//	wcqbench -figure all -json BENCH_queue.json
//
// A usage error (unknown figure, -ring, -wait or -arrival, a bad
// list) exits 2 before any figure runs; a failed gate exits 1.
//
// Absolute numbers depend on the host; the reproduction target is the
// SHAPE of each figure (who wins, by what factor, where lines cross).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/clihelper"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/queues"
)

// bench is one parsed command line.
type bench struct {
	figs           []harness.Figure
	opts           harness.RunOpts
	record         string
	jsonPath       string
	gate           string
	latencySamples int
	gates          []relGate // the same-run gates switched on
}

// parse turns the command line into a bench. Every usage error
// surfaces here, before any figure runs (a malformed flag exits 2 in
// the flag package itself).
func parse(args []string) (*bench, error) {
	fs := flag.NewFlagSet("wcqbench", flag.ExitOnError)
	var ids []string
	for _, f := range harness.Figures() {
		ids = append(ids, f.ID)
	}
	b := &bench{}
	var (
		figure   = fs.String("figure", "all", "figure id ("+strings.Join(ids, ", ")+") or 'all'")
		ops      = fs.Int("ops", 200_000, "operations per measurement point (paper: 10,000,000)")
		reps     = fs.Int("reps", 3, "repetitions per point (paper: 10)")
		maxThr   = fs.Int("maxthreads", 0, "truncate the thread sweep (0 = full paper sweep)")
		queuesF  = fs.String("queues", "", "comma-separated queue subset (default: figure's full line-up)")
		loadsF   = fs.String("loads", "", "figure l1: comma-separated offered-load fractions of calibrated capacity (default 0.25,0.5,0.75,0.9,1.1)")
		arrivalF = fs.String("arrival", "", "figure l1: inter-arrival process, poisson (default) or fixed")
		waitersF = fs.String("waiters", "", "figure w1: comma-separated waiter-count sweep (default 8,64,256,1024)")
	)
	fs.StringVar(&b.record, "record", "", "append results as a markdown section to this file")
	fs.StringVar(&b.jsonPath, "json", "", "write machine-readable results (wcqbench/v1) to this file, e.g. BENCH_queue.json")
	fs.IntVar(&b.latencySamples, "latency-samples", 50, "wakeup-latency samples per blocking queue")
	fs.StringVar(&b.gate, "gate", "", "CI bench gate: compare this run's sub-saturation l1 points against the committed wcqbench/v1 file and exit nonzero on p99/footprint regression")
	on := make([]*bool, len(gates))
	for i, g := range gates {
		on[i] = fs.Bool(g.flag, false, g.usage)
	}
	shared := clihelper.Register(fs, 1<<16)
	fs.Parse(args)
	for i, g := range gates {
		if *on[i] {
			b.gates = append(b.gates, g)
		}
	}

	base, err := shared.Config(0)
	if err != nil {
		return nil, err
	}
	// Each figure keeps its own ring size unless -capacity was given,
	// whatever its value.
	capacitySet := false
	fs.Visit(func(f *flag.Flag) { capacitySet = capacitySet || f.Name == "capacity" })
	if !capacitySet {
		base.Capacity = 0
	}
	b.opts = harness.RunOpts{Ops: *ops, Reps: *reps, MaxThreads: *maxThr, Batch: shared.Batch, Config: base}
	if *queuesF != "" {
		b.opts.Queues = strings.Split(*queuesF, ",")
	}
	loads, err := clihelper.ParseFloatList(*loadsF)
	if err != nil {
		return nil, err
	}
	waiters, err := clihelper.ParseIntList(*waitersF)
	if err != nil {
		return nil, err
	}
	arrival := harness.DefaultArrival
	if *arrivalF != "" {
		if arrival, err = harness.ParseArrival(*arrivalF); err != nil {
			return nil, err
		}
	}

	if *figure == "all" {
		for _, f := range harness.Figures() {
			// -blocking narrows "all" to the blocking figures, the same
			// way -queue all narrows to the Chan facades in wcqstress.
			if !shared.Blocking || f.Blocking {
				b.figs = append(b.figs, f.Resweep(loads, arrival, waiters))
			}
		}
		return b, nil
	}
	f, err := harness.FigureByID(*figure)
	if err != nil {
		return nil, err
	}
	b.figs = []harness.Figure{f.Resweep(loads, arrival, waiters)}
	return b, nil
}

func main() {
	b, err := parse(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := b.run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the figures, printing their tables to w, then writes
// the -record and -json outputs and applies the gates; the error is a
// failed gate or an unwritable output.
func (b *bench) run(w io.Writer) error {
	var md strings.Builder
	fmt.Fprintf(&md, "\n## Run %s (GOMAXPROCS=%d, %d CPU)\n\n",
		time.Now().Format(time.RFC3339), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(&md, "ops/point=%d reps=%d\n\n", b.opts.Ops, b.opts.Reps)

	jf := benchfmt.New(b.opts.Ops, b.opts.Reps)

	for _, f := range b.figs {
		start := time.Now()
		pts := f.Run(b.opts)
		f.Render(w, pts, b.opts)
		fmt.Fprintf(w, "(%.1fs)\n\n", time.Since(start).Seconds())
		jf.Points = append(jf.Points, pts...)
		if b.record != "" {
			md.WriteString("### Figure " + f.ID + ": " + f.Title + "\n\n```\n")
			f.Render(&md, pts, b.opts)
			md.WriteString("```\n\n")
		}
		if f.Blocking {
			report := wakeupLatency(ranQueues(pts), b.opts.Config, b.latencySamples)
			io.WriteString(w, report+"\n")
			if b.record != "" {
				md.WriteString("```\n" + report + "```\n\n")
			}
		}
	}

	if b.record != "" {
		fh, err := os.OpenFile(b.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, err = fh.WriteString(md.String())
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "recorded to %s\n", b.record)
	}

	if b.jsonPath != "" {
		out, err := json.MarshalIndent(jf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(b.jsonPath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d points)\n", b.jsonPath, len(jf.Points))
	}

	for _, g := range b.gates {
		if err := g.check(jf.Points); err != nil {
			return fmt.Errorf("%s FAIL: %w", g.flag, err)
		}
		fmt.Fprintf(w, "%s ok: %s\n", g.flag, g.ok)
	}

	if b.gate != "" {
		if err := benchGate(jf.Points, b.gate); err != nil {
			return fmt.Errorf("bench-gate FAIL: %w", err)
		}
		fmt.Fprintln(w, "bench-gate ok: sub-saturation l1 latency and footprint within bounds of", b.gate)
	}
	return nil
}

// ranQueues lists the queues a figure run produced points for, in
// run order.
func ranQueues(pts []benchfmt.Point) []string {
	var names []string
	for i, p := range pts {
		if i == 0 || p.Queue != pts[i-1].Queue {
			names = append(names, p.Queue)
		}
	}
	return names
}

// Bench-gate tolerances. Latency fractions are the committed load
// levels considered sub-saturation (where p99 is a stable property of
// the queue, not of the knee). The p99 band is wide because absolute
// latency moves with host speed and CI noise — the gate exists to
// catch order-of-magnitude regressions (a lost wakeup, an accidental
// O(n) scan), not 10% drift. On top of the multiplicative band, the
// threshold never drops below gateP99FloorUS: CO-safe sub-saturation
// p99 is dominated by scheduler stalls on a busy runner (observed
// drifting 16x between back-to-back identical runs), while the bug
// class the gate targets drives p99 to the rep span — hundreds of
// milliseconds — because a capacity loss at the 0.5 point tips the
// run past saturation and the backlog grows for the rest of the run.
// Footprint is host-independent, so its band is tight.
const (
	gateSubSaturation = 0.5
	gateP99Factor     = 8.0
	gateP99FloorUS    = 25000.0
	gateFootFactor    = 2.0
	gateFootSlackMB   = 0.5
)

// benchGate compares this run's sub-saturation open-loop points
// against the committed wcqbench/v1 baseline: for every (queue, load)
// present in both, p99 latency must stay within gateP99Factor of the
// committed value and footprint within gateFootFactor (plus slack).
// Zero overlapping points is itself a failure — a gate that compares
// nothing must not pass.
func benchGate(points []benchfmt.Point, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed benchfmt.File
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("%s does not parse: %w", path, err)
	}
	if err := committed.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	base := map[string]benchfmt.Point{}
	for _, p := range committed.Points {
		if p.Figure == "l1" && p.Err == "" && p.Latency != nil && p.Load <= gateSubSaturation {
			base[fmt.Sprintf("%s/%.3f", p.Queue, p.Load)] = p
		}
	}
	if len(base) == 0 {
		return fmt.Errorf("%s has no sub-saturation l1 latency points (regenerate it with -figure all -json)", path)
	}
	compared := 0
	for _, p := range points {
		if p.Figure != "l1" || p.Err != "" || p.Latency == nil || p.Load > gateSubSaturation {
			continue
		}
		b, ok := base[fmt.Sprintf("%s/%.3f", p.Queue, p.Load)]
		if !ok {
			continue
		}
		compared++
		limit := b.Latency.P99 * gateP99Factor
		if limit < gateP99FloorUS {
			limit = gateP99FloorUS
		}
		if p.Latency.P99 > limit {
			return fmt.Errorf("%s at load %.2f: p99 %.1fµs exceeds %.1fµs (committed %.1fµs x%g, floor %.0fµs)",
				p.Queue, p.Load, p.Latency.P99, limit, b.Latency.P99, gateP99Factor, gateP99FloorUS)
		}
		if limit := b.FootprintMB*gateFootFactor + gateFootSlackMB; p.FootprintMB > limit {
			return fmt.Errorf("%s at load %.2f: footprint %.3fMB exceeds %.3fMB (committed %.3fMB x%g + %.1f)",
				p.Queue, p.Load, p.FootprintMB, limit, b.FootprintMB, gateFootFactor, gateFootSlackMB)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no points of this run overlap the committed sub-saturation l1 baseline (run with -figure l1)")
	}
	fmt.Printf("bench-gate: %d sub-saturation points compared\n", compared)
	return nil
}

// smoke-wait tolerances. At high waiter counts adaptive collapses to
// parking, so throughput should match the park baseline to within
// run-to-run noise; 0.7 leaves headroom for a 1-vCPU CI runner. The
// latency check allows a 2x factor plus an absolute floor (same shape
// as the bench gate's): both strategies' p99 sit at single-digit
// microseconds when healthy, where run-to-run noise swamps a strict
// comparison, while the regression the gate exists to catch — a
// thundering herd or a spin phase that burns the workers' CPU — shows
// up as hundreds of microseconds.
const (
	smokeWaitMopsFraction = 0.7
	smokeWaitP99Factor    = 2.0
	smokeWaitP99FloorUS   = 25.0
)

// A relGate is a same-run relative perf gate, switched on by its flag:
// for each queue, a candidate point of one figure is held against a
// baseline point of the same run, so the check is robust to absolute
// host speed.
type relGate struct {
	flag, usage, ok string
	figure          string
	queues          []string // nil: every queue the figure ran
	checks          []relCheck
}

// A relCheck compares the cand and base points of one queue at the
// lowest thread count the figure swept (the highest with hi) against
// the bound max(factor*base, floor): with p99 the candidate's wait
// p99 must not exceed it, otherwise its mean Mops must exceed it.
type relCheck struct {
	cand, base pick
	hi         bool
	p99        bool
	factor     float64
	floor      float64
}

// A pick names a point of a queue by its sweep fields.
type pick struct {
	batch int
	wait  string
}

func (p pick) String() string {
	if p.wait != "" {
		return p.wait
	}
	return fmt.Sprintf("batch=%d", p.batch)
}

// gates is every same-run gate wcqbench knows.
var gates = []relGate{
	{
		flag:   "smoke-batch",
		usage:  "exit nonzero unless figure p2's batch=32 per-element throughput beats batch=1 for wCQ and SCQ (relative check, robust to host speed)",
		ok:     "p2 batch=32 beats scalar for wCQ and SCQ",
		figure: "p2",
		queues: []string{"wCQ", "SCQ"},
		checks: []relCheck{{cand: pick{batch: 32}, base: pick{batch: 1}, factor: 1}},
	},
	{
		flag:   "smoke-wait",
		usage:  "exit nonzero unless figure w1's adaptive strategy beats immediate park on wakeup p99 at the lowest waiter count and stays within throughput noise at the highest (relative same-run check)",
		ok:     "adaptive wait beats park on p99 at low waiter counts and holds throughput at high",
		figure: "w1",
		checks: []relCheck{
			{cand: pick{wait: "adaptive"}, base: pick{wait: "park"}, p99: true,
				factor: smokeWaitP99Factor, floor: smokeWaitP99FloorUS},
			{cand: pick{wait: "adaptive"}, base: pick{wait: "park"}, hi: true, factor: smokeWaitMopsFraction},
		},
	},
}

// check runs the gate over this run's points.
func (g relGate) check(points []benchfmt.Point) error {
	type key struct {
		queue   string
		pick    pick
		threads int
	}
	pts := map[key]benchfmt.Point{}
	ran := map[string]bool{}
	lo, hi := 0, 0
	for _, p := range points {
		if p.Figure != g.figure || p.Err != "" {
			continue
		}
		pts[key{p.Queue, pick{p.Batch, p.Wait}, p.Threads}] = p
		ran[p.Queue] = true
		if lo == 0 || p.Threads < lo {
			lo = p.Threads
		}
		hi = max(hi, p.Threads)
	}
	if len(pts) == 0 {
		return fmt.Errorf("no %s points in this run (run with -figure %s or all)", g.figure, g.figure)
	}
	qs := g.queues
	if qs == nil {
		for q := range ran {
			qs = append(qs, q)
		}
		sort.Strings(qs)
	}
	for _, q := range qs {
		for _, c := range g.checks {
			threads := lo
			if c.hi {
				threads = hi
			}
			cand, ok1 := pts[key{q, c.cand, threads}]
			base, ok2 := pts[key{q, c.base, threads}]
			if !ok1 || !ok2 {
				return fmt.Errorf("%s: missing %s points for %s or %s at %d threads", q, g.figure, c.cand, c.base, threads)
			}
			if c.p99 {
				if cand.Latency == nil || base.Latency == nil {
					return fmt.Errorf("%s: %s points at %d threads carry no wait ladder", q, g.figure, threads)
				}
				if bound := max(c.factor*base.Latency.P99, c.floor); cand.Latency.P99 > bound {
					return fmt.Errorf("%s @ %d threads: %s wait p99 %.1fµs > %s %.1fµs (bound %.1fµs)",
						q, threads, c.cand, cand.Latency.P99, c.base, base.Latency.P99, bound)
				}
			} else if bound := max(c.factor*base.MopsMean, c.floor); cand.MopsMean <= bound {
				return fmt.Errorf("%s @ %d threads: %s %.3f Mops/s does not beat %g x %s %.3f Mops/s",
					q, threads, c.cand, cand.MopsMean, c.factor, c.base, base.MopsMean)
			}
		}
	}
	return nil
}

// wakeupLatency reports the parked-Recv wakeup latency of each queue
// a blocking figure ran — the companion metric to figure b1's
// throughput sweep.
func wakeupLatency(names []string, base queues.Config, samples int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Wakeup latency (parked Recv -> Send, %d samples, µs):\n", samples)
	for _, name := range names {
		cfg := base
		cfg.MaxThreads = 4
		if cfg.Metrics != nil {
			cfg.Metrics = metrics.New()
		}
		hist, err := harness.WakeupLatency(name, cfg, samples)
		if err != nil {
			fmt.Fprintf(&sb, "%-16s n/a (%v)\n", name, err)
			continue
		}
		us := func(q float64) float64 { return float64(hist.Quantile(q)) / 1e3 }
		fmt.Fprintf(&sb, "%-16s p50 %.1f  p90 %.1f  p99 %.1f  p99.9 %.1f  max %.1f\n",
			name, us(0.50), us(0.90), us(0.99), us(0.999), float64(hist.Max)/1e3)
	}
	return sb.String()
}
