package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/backoff"
	"repro/internal/benchfmt"
	"repro/internal/metrics"
	"repro/internal/queues"
)

// TestCalibrateCapacityRunsTheOpenLoopSplit pins l1's calibration to
// the role split the open-loop run uses: a blocking queue calibrated
// at 4 goroutines must run OpenLoopSplit's 2:2, not BlockingSplit's
// 1:3. Every consumer of the blocking engine ends on exactly one
// closed-and-drained receive, so the CloseDrain count is the number of
// consumers the calibration ran.
func TestCalibrateCapacityRunsTheOpenLoopSplit(t *testing.T) {
	f, err := FigureByID("l1")
	if err != nil {
		t.Fatal(err)
	}
	producers, consumers := OpenLoopSplit(f.Cases[0].Threads)
	if bp, bc := BlockingSplit(f.Cases[0].Threads); bp == producers && bc == consumers {
		t.Fatalf("l1's thread count %d does not tell the two splits apart", f.Cases[0].Threads)
	}
	sink := metrics.New()
	if _, err := CalibrateCapacity("Chan", queues.Config{Capacity: 1 << 10, Metrics: sink},
		producers, consumers, 4000); err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshot()
	if got := snap.Counts[metrics.CloseDrain]; got != uint64(consumers) {
		t.Fatalf("calibration ran %d consumers, want the open-loop split's %d", got, consumers)
	}
}

func TestFigureConfig(t *testing.T) {
	park, err := backoff.ByName("park")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := FigureByID("b1")
	w1, _ := FigureByID("w1")
	h1, _ := FigureByID("h1")
	f11b, _ := FigureByID("11b")

	// The base wait strategy reaches a blocking figure's queues; w1's
	// cases override it with their own.
	opts := RunOpts{Config: queues.Config{Wait: park}}
	cfg, err := b1.Config("Chan", b1.Cases[0], opts)
	if err != nil || cfg.Wait != park {
		t.Fatalf("b1 config lost the base wait strategy: %+v, %v", cfg, err)
	}
	for _, c := range w1.Cases {
		cfg, err := w1.Config("Chan", c, opts)
		if err != nil || cfg.Wait.Name() != c.Wait {
			t.Fatalf("w1 case %+v ran wait %v, %v", c, cfg.Wait, err)
		}
	}
	if _, err := w1.Config("Chan", Case{Threads: 8, Wait: "nope"}, opts); err == nil {
		t.Fatal("unknown case wait strategy accepted")
	}

	// Ring size: the figure's own unless the base sets one.
	for _, c := range []struct {
		f     Figure
		queue string
		base  uint64
		want  uint64
	}{
		{f11b, "wCQ", 0, 0}, {w1, "Chan", 0, 64}, {h1, "Chan", 0, 4}, {h1, "ChanSharded", 0, 8},
		{w1, "Chan", 1 << 16, 1 << 16}, {h1, "ChanSharded", 32, 32},
	} {
		cfg, _ := c.f.Config(c.queue, c.f.Cases[0], RunOpts{Config: queues.Config{Capacity: c.base}})
		if cfg.Capacity != c.want {
			t.Fatalf("%s/%s with base capacity %d: capacity %d, want %d", c.f.ID, c.queue, c.base, cfg.Capacity, c.want)
		}
	}

	// Mode: the figure's, unless the base emulates; handle budget from
	// the case; a fresh sink when the run or the figure wants one.
	cfg, _ = f11b.Config("wCQ", Case{Threads: 8}, RunOpts{})
	if cfg.Mode != atomicx.NativeFAA || cfg.MaxThreads != 9 || cfg.Metrics != nil {
		t.Fatalf("11b config: %+v", cfg)
	}
	base := metrics.New()
	cfg, _ = f11b.Config("wCQ", Case{Threads: 8}, RunOpts{Config: queues.Config{Mode: atomicx.EmulatedFAA, Metrics: base}})
	if cfg.Mode != atomicx.EmulatedFAA || cfg.Metrics == nil || cfg.Metrics == base {
		t.Fatalf("11b config under -emulate -metrics: %+v", cfg)
	}
	if cfg, _ := w1.Config("Chan", w1.Cases[0], RunOpts{}); cfg.Metrics == nil {
		t.Fatal("w1 point without its own sink")
	}
}

// TestMaxThreadsRule: -maxthreads drops the cases of a sweep past it
// and clamps a fixed-thread figure's.
func TestMaxThreadsRule(t *testing.T) {
	for _, c := range []struct {
		id         string
		max        int
		want       int // cases kept
		maxThreads int // largest thread count among them
	}{
		{"11b", 4, 3, 4}, {"b1", 2, 1, 2}, {"w1", 64, 4, 64}, {"h1", 4, 0, 0},
		{"u1", 2, 4, 2}, {"p2", 2, 4, 2}, {"l1", 2, 5, 2}, {"l1", 0, 5, 4},
	} {
		f, _ := FigureByID(c.id)
		cs := f.cases(RunOpts{MaxThreads: c.max})
		top := 0
		for _, k := range cs {
			top = max(top, k.Threads)
		}
		if len(cs) != c.want || top != c.maxThreads {
			t.Fatalf("%s at -maxthreads %d: %d cases up to %d threads, want %d up to %d",
				c.id, c.max, len(cs), top, c.want, c.maxThreads)
		}
	}
	// -batch reaches the closed-loop thread sweeps only.
	for id, want := range map[string]int{"11b": 16, "p2": 1, "b1": 0, "u1": 0, "l1": 0} {
		f, _ := FigureByID(id)
		if got := f.cases(RunOpts{Batch: 16})[0].Batch; got != want {
			t.Fatalf("%s under -batch 16: first case batch %d, want %d", id, got, want)
		}
	}
}

func TestResweep(t *testing.T) {
	l1, _ := FigureByID("l1")
	r := l1.Resweep([]float64{0.25, 0.9}, FixedRate, nil)
	if len(r.Cases) != 2 || r.Cases[1].Load != 0.9 || r.Cases[1].Threads != 4 || r.Cases[0].Arrival != FixedRate {
		t.Fatalf("l1 resweep: %+v", r.Cases)
	}
	if l1.Cases[0].Arrival != Poisson {
		t.Fatal("Resweep changed the original figure's cases")
	}
	if r := l1.Resweep(nil, FixedRate, nil); len(r.Cases) != len(l1.Cases) || r.Cases[0].Arrival != FixedRate {
		t.Fatalf("l1 arrival-only resweep: %+v", r.Cases)
	}
	w1, _ := FigureByID("w1")
	r = w1.Resweep(nil, DefaultArrival, []int{8, 64})
	want := []Case{{Threads: 8, Wait: "park"}, {Threads: 64, Wait: "park"}, {Threads: 8, Wait: "adaptive"}, {Threads: 64, Wait: "adaptive"}}
	if len(r.Cases) != len(want) {
		t.Fatalf("w1 resweep: %+v", r.Cases)
	}
	for i := range want {
		if r.Cases[i] != want[i] {
			t.Fatalf("w1 resweep case %d: %+v, want %+v", i, r.Cases[i], want[i])
		}
	}
	f11b, _ := FigureByID("11b")
	if r := f11b.Resweep([]float64{0.5}, FixedRate, []int{8}); len(r.Cases) != len(f11b.Cases) || r.Cases[0] != f11b.Cases[0] {
		t.Fatalf("11b changed by the l1/w1 overrides: %+v", r.Cases)
	}
}

// TestLadderFiguresRunAndRender runs miniature w1 and h1 figures: every
// point carries the wait ladder, and the table prints each number the
// figure reports.
func TestLadderFiguresRunAndRender(t *testing.T) {
	w1, _ := FigureByID("w1")
	h1, _ := FigureByID("h1")
	h1.Cases = h1.Cases[:1]
	for _, c := range []struct {
		f     Figure
		heads []string
	}{
		{w1.Resweep(nil, DefaultArrival, []int{8}), []string{"wait/waiters", "park/8", "adaptive/8", "Chan spin-hit"}},
		{h1, []string{"split", "1:7", "Chan hit-rate"}},
	} {
		opts := RunOpts{Ops: 4000, Reps: 1, Queues: []string{"Chan"}}
		pts := c.f.Run(opts)
		if len(pts) != len(c.f.Cases) {
			t.Fatalf("%s: %d points, want %d", c.f.ID, len(pts), len(c.f.Cases))
		}
		for _, pt := range pts {
			if pt.Err != "" || pt.Latency == nil || pt.MopsMean <= 0 {
				t.Fatalf("%s point underfilled: %+v", c.f.ID, pt)
			}
		}
		var sb strings.Builder
		c.f.Render(&sb, pts, opts)
		out := sb.String()
		for _, h := range append(c.heads, "Figure "+c.f.ID, "Chan Mops/s", "Chan p50(µs)", "Chan p99(µs)", "Chan max(µs)") {
			if !strings.Contains(out, h) {
				t.Fatalf("%s render lacks %q:\n%s", c.f.ID, h, out)
			}
		}
		if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 2+len(c.f.Cases) {
			t.Fatalf("%s: unexpected table shape:\n%s", c.f.ID, out)
		}
	}
}

// TestHandoffHitRate keeps "never tried" apart from "always missed" on
// a handoff (h1) point, from the metrics snapshot through the JSON
// field to the table cell.
func TestHandoffHitRate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		hits, misses int
		cell, json   string // json: the marshalled field, "" when absent
	}{
		{"no attempts", 0, 0, "n/a", ""},
		{"all misses", 0, 3, "0.00", `"handoff_rate":0`},
		{"all hits", 4, 0, "1.00", `"handoff_rate":1`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := metrics.New()
			for i := 0; i < tc.hits; i++ {
				sink.Inc(metrics.HandoffSend)
			}
			for i := 0; i < tc.misses; i++ {
				sink.Inc(metrics.HandoffMiss)
			}
			snap := sink.Snapshot()
			if _, ok := snap.HandoffRate(); ok != (tc.hits+tc.misses > 0) {
				t.Fatalf("HandoffRate ok = %v with %d attempts", ok, tc.hits+tc.misses)
			}
			pt := benchfmt.Point{Figure: "h1", Queue: "Chan", Threads: 8}
			ladderStats(&pt, Case{Threads: 8, Producers: 1, Consumers: 7}, snap)
			if got := hitRateCell(pt); got != tc.cell {
				t.Fatalf("hit-rate cell = %q, want %q", got, tc.cell)
			}
			b, err := json.Marshal(pt)
			if err != nil {
				t.Fatal(err)
			}
			if has := strings.Contains(string(b), `"handoff_rate"`); has != (tc.json != "") ||
				(has && !strings.Contains(string(b), tc.json)) {
				t.Fatalf("point JSON %s, want field %q", b, tc.json)
			}
			f := benchfmt.New(1, 1)
			f.Points = []benchfmt.Point{pt}
			if err := f.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
