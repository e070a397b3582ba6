package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/queues"
)

func mustParse(t *testing.T, args ...string) *bench {
	t.Helper()
	b, err := parse(args)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return b
}

func TestParseUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "99z"},
		{"-wait", "nope"},
		{"-figure", "b1", "-wait", "nope"},
		{"-ring", "XYZ"},
		{"-arrival", "uniform"},
		{"-loads", "0.5,x"},
		{"-waiters", "0"},
	} {
		if _, err := parse(args); err == nil {
			t.Fatalf("parse %q: no usage error", args)
		}
	}
}

// TestParseWait: -wait reaches every point of a blocking figure, and
// w1's own strategies still win over it.
func TestParseWait(t *testing.T) {
	b := mustParse(t, "-figure", "b1", "-wait", "park")
	if b.opts.Config.Wait == nil || b.opts.Config.Wait.Name() != "park" {
		t.Fatalf("-wait park not in the base config: %+v", b.opts.Config)
	}
	f := b.figs[0]
	cfg, err := f.Config("Chan", f.Cases[0], b.opts)
	if err != nil || cfg.Wait.Name() != "park" {
		t.Fatalf("b1 point config: %+v, %v", cfg, err)
	}
	b = mustParse(t, "-figure", "w1", "-wait", "park")
	f = b.figs[0]
	for _, c := range f.Cases {
		if cfg, _ := f.Config("Chan", c, b.opts); cfg.Wait.Name() != c.Wait {
			t.Fatalf("w1 case %+v ran under %s", c, cfg.Wait.Name())
		}
	}
}

// TestParseCapacity: an explicit -capacity reaches the queue even when
// it equals the flag's default; without the flag each figure keeps its
// own ring size.
func TestParseCapacity(t *testing.T) {
	for _, c := range []struct {
		args []string
		want uint64
	}{
		{[]string{"-figure", "w1"}, 64},
		{[]string{"-figure", "w1", "-capacity", "65536"}, 1 << 16},
		{[]string{"-figure", "w1", "-capacity", "128"}, 128},
	} {
		b := mustParse(t, c.args...)
		f := b.figs[0]
		cfg, err := f.Config("Chan", f.Cases[0], b.opts)
		if err != nil {
			t.Fatal(err)
		}
		q, err := queues.New("Chan", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if q.Cap() != c.want {
			t.Fatalf("%q: queue capacity %d, want %d", c.args, q.Cap(), c.want)
		}
	}
}

func TestParseSweepOverrides(t *testing.T) {
	b := mustParse(t, "-figure", "l1", "-loads", "0.25,0.5", "-arrival", "fixed")
	if cs := b.figs[0].Cases; len(cs) != 2 || cs[1].Load != 0.5 || cs[0].Arrival.String() != "fixed" {
		t.Fatalf("l1 cases: %+v", cs)
	}
	b = mustParse(t, "-waiters", "8", "-blocking")
	var ids []string
	for _, f := range b.figs {
		ids = append(ids, f.ID)
		if f.ID == "w1" && len(f.Cases) != 2 {
			t.Fatalf("w1 under -waiters 8: %+v", f.Cases)
		}
	}
	if !reflect.DeepEqual(ids, []string{"b1", "w1", "h1"}) {
		t.Fatalf("-blocking all ran %v", ids)
	}
}

// TestWakeupLatencyQueues: the wakeup report covers the queues the
// figure ran, not the raw -queues list.
func TestWakeupLatencyQueues(t *testing.T) {
	b := mustParse(t, "-blocking", "-queues", "Chan,wCQ", "-ops", "2000", "-reps", "1", "-maxthreads", "2",
		"-waiters", "2", "-latency-samples", "2")
	var out strings.Builder
	if err := b.run(&out); err != nil {
		t.Fatal(err)
	}
	var report []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "Chan ") || strings.HasPrefix(line, "wCQ ") {
			report = append(report, strings.Fields(line)[0])
		}
	}
	// b1 and w1 run Chan (h1's splits all exceed -maxthreads 2).
	if !reflect.DeepEqual(report, []string{"Chan", "Chan"}) {
		t.Fatalf("wakeup report lines %v, want Chan for b1 and w1:\n%s", report, out.String())
	}
}

func p2(queue string, batch int, mops float64) benchfmt.Point {
	return benchfmt.Point{Figure: "p2", Queue: queue, Threads: 4, Batch: batch, MopsMean: mops}
}

func w1(queue, wait string, waiters int, mops, p99 float64) benchfmt.Point {
	return benchfmt.Point{Figure: "w1", Queue: queue, Threads: waiters, Wait: wait, MopsMean: mops,
		Latency: &benchfmt.LatencyUS{P50: 1, P90: 1, P99: p99, P999: p99, Max: p99, Count: 10}}
}

func TestGates(t *testing.T) {
	gate := map[string]relGate{}
	for _, g := range gates {
		gate[g.flag] = g
	}
	healthyWait := []benchfmt.Point{
		w1("Chan", "park", 8, 4, 10), w1("Chan", "adaptive", 8, 4, 15),
		w1("Chan", "park", 64, 4, 50), w1("Chan", "adaptive", 64, 3, 500),
	}
	for _, c := range []struct {
		name, gate string
		pts        []benchfmt.Point
		pass       bool
	}{
		{"batch beats scalar", "smoke-batch",
			[]benchfmt.Point{p2("wCQ", 1, 5), p2("wCQ", 32, 9), p2("SCQ", 1, 5), p2("SCQ", 32, 6), p2("UWCQ", 32, 1)}, true},
		{"batch ties scalar", "smoke-batch",
			[]benchfmt.Point{p2("wCQ", 1, 5), p2("wCQ", 32, 9), p2("SCQ", 1, 5), p2("SCQ", 32, 5)}, false},
		{"batch point missing", "smoke-batch", []benchfmt.Point{p2("wCQ", 1, 5), p2("wCQ", 32, 9)}, false},
		{"no p2 points", "smoke-batch", healthyWait, false},
		{"wait healthy", "smoke-wait", healthyWait, true},
		{"wait p99 under the floor", "smoke-wait", []benchfmt.Point{
			w1("Chan", "park", 8, 4, 2), w1("Chan", "adaptive", 8, 4, 24),
			w1("Chan", "park", 64, 4, 50), w1("Chan", "adaptive", 64, 3, 500)}, true},
		{"wait p99 regression", "smoke-wait", []benchfmt.Point{
			w1("Chan", "park", 8, 4, 20), w1("Chan", "adaptive", 8, 4, 41),
			w1("Chan", "park", 64, 4, 50), w1("Chan", "adaptive", 64, 3, 500)}, false},
		{"wait throughput collapse", "smoke-wait", []benchfmt.Point{
			w1("Chan", "park", 8, 4, 10), w1("Chan", "adaptive", 8, 4, 10),
			w1("Chan", "park", 64, 4, 50), w1("Chan", "adaptive", 64, 2.7, 50)}, false},
		{"wait second queue missing its pair", "smoke-wait", append(healthyWait[:4:4],
			w1("ChanSharded", "park", 8, 4, 10)), false},
		{"wait ladder missing", "smoke-wait", []benchfmt.Point{
			{Figure: "w1", Queue: "Chan", Threads: 8, Wait: "park", MopsMean: 4}, w1("Chan", "adaptive", 8, 4, 10),
			w1("Chan", "park", 64, 4, 50), w1("Chan", "adaptive", 64, 3, 50)}, false},
		{"no w1 points", "smoke-wait", []benchfmt.Point{p2("wCQ", 1, 5)}, false},
	} {
		err := gate[c.gate].check(c.pts)
		if (err == nil) != c.pass {
			t.Fatalf("%s (%s): err %v, want pass=%v", c.name, c.gate, err, c.pass)
		}
	}
}

func l1(queue string, load, p99, footMB float64) benchfmt.Point {
	return benchfmt.Point{Figure: "l1", Queue: queue, Threads: 4, Load: load, MopsMin: 1, MopsMean: 1, MopsMax: 1,
		FootprintMB: footMB, Latency: &benchfmt.LatencyUS{P50: 1, P90: 1, P99: p99, P999: p99, Max: p99, Count: 10}}
}

func TestBenchGate(t *testing.T) {
	committed := benchfmt.New(1000, 1)
	committed.Points = []benchfmt.Point{l1("Chan", 0.25, 10000, 1), l1("Chan", 0.5, 10000, 1), l1("Chan", 1.1, 50000, 1)}
	raw, err := json.Marshal(committed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_queue.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pts  []benchfmt.Point
		want string // "" = pass, else a substring of the error
	}{
		{"within band", []benchfmt.Point{l1("Chan", 0.25, 70000, 2), l1("Chan", 0.5, 5000, 1), l1("Chan", 1.1, 1e9, 90)}, ""},
		{"p99 regression", []benchfmt.Point{l1("Chan", 0.25, 10000, 1), l1("Chan", 0.5, 90000, 1)}, "p99"},
		{"footprint regression", []benchfmt.Point{l1("Chan", 0.25, 10000, 2.6)}, "footprint"},
		{"zero overlapping points", []benchfmt.Point{l1("ChanSCQ", 0.25, 10, 1), l1("Chan", 0.75, 10, 1)}, "no points"},
	} {
		err := benchGate(c.pts, path)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Fatalf("%s: err %v, want %q", c.name, err, c.want)
		}
	}
	if err := benchGate(nil, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline file accepted")
	}
}
