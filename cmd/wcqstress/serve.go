package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/metrics"
	"repro/internal/queueapi"
)

// monitor is what the exporters and the snapshot log read: the queue
// the rounds drive, swapped in whenever a round builds a new one, and
// the totals of completed rounds. Event counts come from the queue's
// metrics sink, which every queue of one run shares.
type monitor struct {
	threads        int // producers + consumers
	start          time.Time
	cur            atomic.Pointer[watched]
	values, rounds atomic.Uint64
}

// watched is the queue the rounds drive.
type watched struct{ queueapi.Queue }

func newMonitor(threads int) *monitor { return &monitor{threads: threads, start: time.Now()} }

// watch points the exporters at q.
func (m *monitor) watch(q queueapi.Queue) { m.cur.Store(&watched{q}) }

// roundDone counts one verified round that moved values values.
func (m *monitor) roundDone(values int) {
	m.values.Add(uint64(values))
	m.rounds.Add(1)
}

// series is one scalar that both exporters serve.
type series struct {
	name, typ, help string
	v               any
}

// read samples w: the scalar series and the sink snapshot (zero for
// the external baselines, which have no sink). handoff_hit_rate is
// left out until a handoff attempt has been recorded.
func (m *monitor) read(w *watched) ([]series, metrics.Snapshot) {
	var snap metrics.Snapshot
	if s, ok := w.Queue.(queueapi.Statser); ok {
		snap = s.Stats()
	}
	rings := 0
	if r, ok := w.Queue.(interface{ Rings() int }); ok {
		rings = r.Rings()
	}
	ss := []series{
		{"values_total", "counter", "Values verified exactly-once and in per-producer order by completed rounds.", m.values.Load()},
		{"rounds_total", "counter", "Completed verified rounds.", m.rounds.Load()},
		{"footprint_bytes", "gauge", "Bytes the queue retains right now.", w.Footprint()},
		{"rings", "gauge", "Live linked rings of an unbounded queue (0 when not applicable).", rings},
		{"waiters", "gauge", "Goroutines currently parked on the queue's blocking facade.", snap.Waiters},
		{"handoffs_total", "counter", "Values moved by the direct-handoff rendezvous fast path (sends into parked receivers plus takeovers of parked senders).", snap.Handoffs()},
		{"uptime_seconds", "gauge", "Seconds since the run started.", time.Since(m.start).Seconds()},
	}
	if rate, ok := snap.HandoffRate(); ok {
		ss = append(ss, series{"handoff_hit_rate", "gauge", "Fraction of handoff attempts that moved a value past the ring, in [0, 1].", rate})
	}
	return ss, snap
}

// quantiles flattens a nanosecond histogram snapshot into the
// percentile set the expvar payload reports.
func quantiles(h metrics.HistogramSnapshot) map[string]uint64 {
	return map[string]uint64{"count": h.Count, "max": h.Max,
		"p50": h.Quantile(0.50), "p90": h.Quantile(0.90), "p99": h.Quantile(0.99), "p999": h.Quantile(0.999)}
}

// vars is the expvar payload, served under the "wcqstress" key on
// /debug/vars. Durations are nanoseconds, as the histograms record.
func (m *monitor) vars(w *watched) map[string]any {
	ss, snap := m.read(w)
	events := make(map[string]uint64, metrics.NumEvents)
	snap.EachCount(func(event string, n uint64) { events[event] = n })
	out := map[string]any{"queue": w.Name(), "threads": m.threads, "events": events,
		"parked_ns": quantiles(snap.Parked), "wake_tranche": quantiles(snap.Tranches)}
	for _, s := range ss {
		out[s.name] = s.v
	}
	return out
}

// promText renders the Prometheus text exposition (format 0.0.4) for
// /metrics: the scalar series, the sink's event counters, and the
// parked-duration percentiles in seconds.
func (m *monitor) promText(out io.Writer, w *watched) {
	ss, snap := m.read(w)
	for _, s := range ss {
		fmt.Fprintf(out, "# HELP wcqstress_%[1]s %[2]s\n# TYPE wcqstress_%[1]s %[3]s\nwcqstress_%[1]s{queue=%[4]q} %[5]v\n",
			s.name, s.help, s.typ, w.Name(), s.v)
	}
	fmt.Fprintf(out, "# HELP wcqstress_events_total Internal queue events by kind (see internal/metrics).\n# TYPE wcqstress_events_total counter\n")
	snap.EachCount(func(event string, n uint64) {
		fmt.Fprintf(out, "wcqstress_events_total{queue=%q,event=%q} %d\n", w.Name(), event, n)
	})
	const parked = "wcqstress_parked_seconds"
	fmt.Fprintf(out, "# HELP %s Time waiters spent blocked (spin-phase hits and futex parks).\n# TYPE %[1]s gauge\n", parked)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(out, "%s{queue=%q,quantile=\"%g\"} %g\n", parked, w.Name(), q, float64(snap.Parked.Quantile(q))/1e9)
	}
	fmt.Fprintf(out, "%s_count{queue=%q} %d\n", parked, w.Name(), snap.Parked.Count)
	fmt.Fprintf(out, "%s_max{queue=%q} %g\n", parked, w.Name(), float64(snap.Parked.Max)/1e9)
}

// snapshotFile packages one round as a wcqbench/v1 record: the figure
// is "live", ops counts the round's enqueues and dequeues (two per
// value), and the throughput axes carry the round's rate. It is the
// schema the bench writes, so trajectory tooling reads both.
func (m *monitor) snapshotFile(values int, dt time.Duration) benchfmt.File {
	ops := 2 * values
	f := benchfmt.New(ops, 1)
	mops := 0.0
	if dt > 0 {
		mops = float64(ops) / dt.Seconds() / 1e6
	}
	w := m.cur.Load()
	f.Points = []benchfmt.Point{{Figure: "live", Queue: w.Name(), Threads: m.threads,
		MopsMin: mops, MopsMean: mops, FootprintMB: float64(w.Footprint()) / (1 << 20)}}
	return f
}

// serve starts the /metrics and /debug/vars endpoints on addr, prints
// the bound address to out, and returns the function that stops them.
// Both answer 503 until the first round has started.
func (m *monitor) serve(addr string, out io.Writer) (shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	handle := func(path, ctype string, render func(io.Writer, *watched)) {
		mux.HandleFunc(path, func(rw http.ResponseWriter, _ *http.Request) {
			w := m.cur.Load()
			if w == nil {
				http.Error(rw, "no round has started", http.StatusServiceUnavailable)
				return
			}
			rw.Header().Set("Content-Type", ctype)
			render(rw, w)
		})
	}
	handle("/metrics", "text/plain; version=0.0.4; charset=utf-8", m.promText)
	handle("/debug/vars", "application/json; charset=utf-8", func(out io.Writer, w *watched) {
		// expvar's own layout, so cmdline and memstats stay next to
		// this run's key. The key is not expvar.Publish'ed: that
		// registry is process-wide and panics on a second monitor.
		vars, _ := json.Marshal(m.vars(w)) // maps of numbers and strings always marshal
		fmt.Fprintf(out, "{\n\"wcqstress\": %s", vars)
		expvar.Do(func(kv expvar.KeyValue) { fmt.Fprintf(out, ",\n%q: %s", kv.Key, kv.Value) })
		fmt.Fprintf(out, "\n}\n")
	})
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(out, "wcqstress: http:", err)
		}
	}()
	fmt.Fprintf(out, "wcqstress: serving http://%s/metrics\n", ln.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // the rounds' verdict is already in
	}, nil
}
