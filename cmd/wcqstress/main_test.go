package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/metrics"
	"repro/internal/queues"
)

// liveMonitor builds a monitor over a small Chan with metrics on,
// pushes some traffic through it and counts it as one round, so the
// exporters have real numbers to render.
func liveMonitor(t *testing.T) *monitor {
	t.Helper()
	q, err := queues.New("Chan", queues.Config{
		Capacity:   256,
		MaxThreads: 8,
		Metrics:    metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newMonitor(2)
	m.watch(q)
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if !h.Enqueue(i) {
			t.Fatal("enqueue failed on an empty chan")
		}
		if _, ok := h.Dequeue(); !ok {
			t.Fatal("dequeue failed after enqueue")
		}
	}
	m.roundDone(100)
	return m
}

func TestPromTextShape(t *testing.T) {
	m := liveMonitor(t)
	var b strings.Builder
	m.promText(&b, m.cur.Load())
	out := b.String()
	for _, want := range []string{
		`wcqstress_values_total{queue="Chan"} 100`,
		`wcqstress_rounds_total{queue="Chan"} 1`,
		`wcqstress_events_total{queue="Chan",event="park"}`,
		`wcqstress_events_total{queue="Chan",event="close_drain"}`,
		`wcqstress_footprint_bytes{queue="Chan"}`,
		`wcqstress_parked_seconds{queue="Chan",quantile="0.99"}`,
		`wcqstress_parked_seconds_count{queue="Chan"} 0`,
		"# TYPE wcqstress_values_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus text missing %q in:\n%s", want, out)
		}
	}
}

func TestVarsShape(t *testing.T) {
	lm := liveMonitor(t)
	m := lm.vars(lm.cur.Load())
	if m["values_total"].(uint64) != 100 || m["rounds_total"].(uint64) != 1 {
		t.Fatalf("values_total %v, rounds_total %v; want 100 and 1", m["values_total"], m["rounds_total"])
	}
	events := m["events"].(map[string]uint64)
	if _, ok := events["park"]; !ok {
		t.Fatalf("events map missing park: %v", events)
	}
}

// TestHandoffHitRateNeedsAnAttempt: the hit-rate gauge is left out
// while no handoff has been attempted (a rate of nothing is not 0) and
// served, at 0, once the first attempt missed.
func TestHandoffHitRateNeedsAnAttempt(t *testing.T) {
	sink := metrics.New()
	q, err := queues.New("Chan", queues.Config{Capacity: 256, MaxThreads: 8, Metrics: sink})
	if err != nil {
		t.Fatal(err)
	}
	m := newMonitor(2)
	m.watch(q)
	if v, ok := m.vars(m.cur.Load())["handoff_hit_rate"]; ok {
		t.Fatalf("handoff_hit_rate = %v before any attempt", v)
	}
	var b strings.Builder
	m.promText(&b, m.cur.Load())
	if strings.Contains(b.String(), "handoff_hit_rate") {
		t.Fatalf("prometheus text serves handoff_hit_rate before any attempt:\n%s", b.String())
	}
	sink.Inc(metrics.HandoffMiss)
	if v, ok := m.vars(m.cur.Load())["handoff_hit_rate"]; !ok || v.(float64) != 0 {
		t.Fatalf("handoff_hit_rate = %v, %v after one missed attempt; want 0, true", v, ok)
	}
}

func TestSnapshotFileValidates(t *testing.T) {
	f := liveMonitor(t).snapshotFile(12345, 2*time.Second)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	p := f.Points[0]
	if p.Figure != "live" || p.Queue != "Chan" || p.MopsMean <= 0 {
		t.Fatalf("snapshot point %+v", p)
	}
}

func TestSnapshotFileZeroIntervalValidates(t *testing.T) {
	// A round too short for the clock must still validate (zero
	// throughput is legal).
	f := liveMonitor(t).snapshotFile(0, 0)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUsageErrors holds every size setting that cannot describe a run
// to exit status 2 before any round runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-producers", "-1"},
		{"-producers", "0"},
		{"-consumers", "0"},
		{"-per", "0"},
		{"-per", "4294967296"}, // one past Encode's 32-bit sequence field
		{"-rounds", "-1"},
		{"-rounds", "0", "-queue", "all"},
		{"-ring", "nope"},
		{"-nosuchflag"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(context.Background(), args, &out, &errOut); code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, out.String(), errOut.String())
			}
			if out.Len() != 0 {
				t.Fatalf("a round ran: %q", out.String())
			}
		})
	}
}

// syncBuffer is a bytes.Buffer the tool and the test may share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeAndSnapshots runs the long-run mode in process: blocking
// Chan rounds until cancelled, the endpoints served on an ephemeral
// port, one snapshot line per round.
func TestServeAndSnapshots(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snap.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-queue", "Chan", "-blocking", "-per", "2000", "-rounds", "0",
			"-serve", "127.0.0.1:0", "-snapshots", snap}, &out, &errOut)
	}()

	// Wait for two verified rounds.
	serving := regexp.MustCompile(`serving (http://\S+)/metrics`)
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(out.String(), "round 1 ok") {
		select {
		case code := <-done:
			t.Fatalf("exited %d early: %s%s", code, out.String(), errOut.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no two rounds within 30s: %s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	base := serving.FindStringSubmatch(out.String())
	if base == nil {
		t.Fatalf("no serving line: %s", out.String())
	}
	get := func(path string) string {
		resp, err := http.Get(base[1] + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	prom := get("/metrics")
	if regexp.MustCompile(`wcqstress_values_total\{queue="Chan"\} 0\n`).MatchString(prom) ||
		!regexp.MustCompile(`wcqstress_events_total\{queue="Chan",event="park"\} [1-9]`).MatchString(prom) {
		t.Fatalf("scrape shows no verified values or no parks:\n%s", prom)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, `"wcqstress"`) || !strings.Contains(vars, `"memstats"`) {
		t.Fatalf("/debug/vars misses the wcqstress or memstats key:\n%.400s", vars)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after cancel: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no exit within 30s of cancel")
	}
	n, err := benchfmt.ValidateFile(snap)
	if err != nil || n < 2 {
		t.Fatalf("snapshot log: %d records, %v", n, err)
	}
}
