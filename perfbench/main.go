// Command perfbench is the repository's benchmark. It runs one named
// workload through the library's public API for a fixed time and
// prints every end-to-end metric, or, with -trace 1, runs the traced
// suite that gives each layer its own cost. The last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root through run.py, which
// keeps every build output inside the checkout:
//
//	python3 perfbench/run.py --workload queue-pair --seed 1 --seconds 30 --trace 0
//
// A run with any failed operation prints its result and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/metrics"
)

// outcome is what one run of a rig measured.
type outcome struct {
	attempted, failed  uint64
	transfers          uint64 // values delivered to a consumer
	elapsed            time.Duration
	peakFP, retainedFP uint64 // bytes
	meters             []*meter
	scale              float64          // transfers per unit of a meter's ops
	stats              metrics.Snapshot // sink events of a traced run

	// Filled by summarize, after the run's allocations are counted.
	rates      []float64 // per interval, transfers/s
	p50s, p99s []float64 // per interval, ns

	// Phased workloads only.
	bursts           uint64
	rings            int
	enqWall, deqWall time.Duration
}

// summarize turns the meters into per-interval figures.
func (o *outcome) summarize() {
	o.rates, o.p50s, o.p99s = intervals(o.meters, o.scale)
}

// workload is one named end-to-end workload.
type workload struct {
	name string
	// build returns a fresh instance: untraced when sink is nil.
	build func(seed uint64, sink *metrics.Sink) (rig, error)
	// meters returns one meter per measured goroutine for a timed run
	// of length d; warm returns meters for the fixed warm-up.
	meters func(d, width time.Duration) []*meter
	warm   func() []*meter
}

const (
	interval  = 250 * time.Millisecond // longest e2e measuring interval
	setupReps = 11                     // set-ups per run; setup_s is their median
	segments  = 10                     // fresh instances the measured time is split across
)

var workloads = []workload{
	{
		name: "queue-pair",
		build: func(seed uint64, sink *metrics.Sink) (rig, error) {
			return queuePair(seed, sink, nil)
		},
		meters: func(d, width time.Duration) []*meter {
			n := int(d.Seconds()*4e6) / pairSampleEvery
			return []*meter{newMeter(d, width, n), newMeter(d, width, n)}
		},
		warm: func() []*meter {
			return []*meter{newMeter(0, 0, 0).fixedWork(50_000), newMeter(0, 0, 0).fixedWork(50_000)}
		},
	},
	{
		name: "chan-rpc",
		build: func(seed uint64, sink *metrics.Sink) (rig, error) {
			return chanRPC(seed, sink, nil)
		},
		meters: func(d, width time.Duration) []*meter {
			return []*meter{newMeter(d, width, int(d.Seconds()*2e6)/rpcSampleEvery)}
		},
		warm: func() []*meter { return []*meter{newMeter(0, 0, 0).fixedWork(20_000)} },
	},
	{
		name: "unbounded-burst",
		build: func(seed uint64, sink *metrics.Sink) (rig, error) {
			return unboundedBurst(seed, sink, nil)
		},
		// Intervals end with the first round end past each boundary.
		meters: func(d, width time.Duration) []*meter {
			n := int(d.Seconds()*8e6) / burstSampleEvery
			return []*meter{newMeter(d, width, n), newMeter(d, width, n)}
		},
		// One round: every burst size once.
		warm: func() []*meter {
			return []*meter{newMeter(0, 0, 0).fixedWork(1), newMeter(0, 0, 0).fixedWork(1)}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seqBase is a producer's first sequence number: the seed moves every
// value a run sends, while leaving room below 2^32 for any run length.
func seqBase(seed uint64, producer int) uint32 {
	return uint32(mix(seed^uint64(producer+1)*0x9e3779b97f4a7c15) >> 34)
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// totals counts the transfers of a whole invocation.
type totals struct{ attempted, failed uint64 }

func (t *totals) add(o outcome) {
	t.attempted += o.attempted
	t.failed += o.failed
}

func main() {
	name := flag.String("workload", "", "workload: queue-pair, chan-rpc or unbounded-burst")
	seed := flag.Uint64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 30, "length of the measured run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer suite")
	commit := flag.String("commit", "unknown", "commit of the measured source, for the host record")
	digest := flag.String("source-digest", "unknown", "digest of the measured source, for the host record")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// Marshalling plain numbers and strings cannot fail.
	host, _ := json.Marshal(map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "go": runtime.Version(),
		"commit": *commit, "source_digest": *digest, "seed": *seed, "workload": w.name, "trace": *trace,
	})
	fmt.Printf("host %s\n", host)

	d := time.Duration(*seconds) * time.Second
	var vals map[string]float64
	var t totals
	var err error
	if *trace == 1 {
		vals, err = traced(w, *seed, d, &t)
	} else {
		vals, err = endToEnd(w, *seed, d, &t)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	defs := e2eMetrics
	if *trace == 1 {
		defs = layerMetrics
	}
	res, err := report(defs, vals, t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	for _, m := range defs {
		fmt.Printf("%-36s %14.6g %-12s %s\n", m.name, vals[m.name], m.unit, m.about)
	}
	fmt.Printf("failed %d of %d attempted transfers (%.3g)\n", t.failed, t.attempted, float64(t.failed)/float64(max(t.attempted, 1)))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// report builds the result from the measured values; every defined
// metric must have been measured as a finite number.
func report(defs []metricDef, vals map[string]float64, t totals) (result, error) {
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s not measured (%v)", m.name, v)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// endToEnd times setupReps set-ups, then measures the workload for d
// with no metrics sink attached. The measured time is split across
// `segments` fresh instances, so that no one instance's placement in
// memory or on the CPUs decides the figures.
func endToEnd(w workload, seed uint64, d time.Duration, t *totals) (map[string]float64, error) {
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		start := time.Now()
		r, err := w.build(seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		t.add(r.run(w.warm()))
		setups[i] = time.Since(start).Seconds()
	}
	var all outcome
	var mallocs uint64
	for range segments {
		r, err := w.build(seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		t.add(r.run(w.warm()))
		ms := w.meters(d/segments, min(interval, d/segments/4))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o := r.run(ms)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		o.summarize()
		t.add(o)
		all.transfers += o.transfers
		all.elapsed += o.elapsed
		all.rates = append(all.rates, o.rates...)
		all.p50s = append(all.p50s, o.p50s...)
		all.p99s = append(all.p99s, o.p99s...)
		all.peakFP = max(all.peakFP, o.peakFP)
		all.retainedFP = max(all.retainedFP, o.retainedFP)
	}
	o := all
	if len(o.rates) == 0 || len(o.p50s) == 0 {
		return nil, fmt.Errorf("%s: run too short to measure an interval", w.name)
	}
	fmt.Printf("run %s: %d transfers in %.3fs, %d intervals (rate quartiles %.4g %.4g %.4g M/s), %.4g allocs/transfer\n",
		w.name, o.transfers, o.elapsed.Seconds(), len(o.rates),
		quartile(o.rates, 1)/1e6, quartile(o.rates, 2)/1e6, quartile(o.rates, 3)/1e6,
		ratio(mallocs, o.transfers))
	return map[string]float64{
		"setup_s":               median(setups),
		"throughput_mtps":       median(o.rates) / 1e6,
		"latency_p50_us":        iqm(o.p50s) / 1e3,
		"latency_p99_us":        iqm(o.p99s) / 1e3,
		"footprint_peak_mb":     float64(o.peakFP) / (1 << 20),
		"footprint_retained_mb": float64(o.retainedFP) / (1 << 20),
	}, nil
}

// metricDef describes one metric; BENCHMARK.json lists the same names,
// units, directions and, for end-to-end metrics, bounds.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
	about              string
}

var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of 11 set-ups: construction, handle registration, fixed warm-up"},
	{"throughput_mtps", "Mtransfers/s", "higher", 0.25, "values delivered to a consumer per second, median over intervals"},
	{"latency_p50_us", "us", "lower", 0.15, "mean of the middle half of interval p50s: a pair (queue-pair), a round trip (chan-rpc), one call (unbounded-burst)"},
	{"latency_p99_us", "us", "lower", 0.25, "mean of the middle half of interval p99s, same samples as latency_p50_us"},
	{"footprint_peak_mb", "MB", "lower", 0.1, "largest Footprint() seen; at the burst top for unbounded-burst"},
	{"footprint_retained_mb", "MB", "lower", 0.1, "largest Footprint() after a full drain"},
}
