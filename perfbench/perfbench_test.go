package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	wfqueue "repro"
	"repro/internal/metrics"
)

// faulty wraps a handle and breaks it on purpose: it drops every
// dropEvery-th enqueued value (0 never) and answers one spurious empty
// on the spuriousAt-th dequeue (0 never).
type faulty[P pairer] struct {
	h          P
	dropEvery  int
	spuriousAt int
	nEnq, nDeq int
}

func (f *faulty[P]) Enqueue(v uint64) bool {
	f.nEnq++
	if f.dropEvery > 0 && f.nEnq%f.dropEvery == 0 {
		return true
	}
	return f.h.Enqueue(v)
}

func (f *faulty[P]) Dequeue() (uint64, bool) {
	f.nDeq++
	if f.nDeq == f.spuriousAt {
		return 0, false
	}
	return f.h.Dequeue()
}

func twoHandles(t *testing.T) (*wfqueue.Queue[uint64], *wfqueue.Handle[uint64], *wfqueue.Handle[uint64]) {
	t.Helper()
	q, err := wfqueue.New[uint64](pairCapacity, 2)
	if err != nil {
		t.Fatal(err)
	}
	h0, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	h1, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	return q, h0, h1
}

func fixed(n uint64) []*meter {
	return []*meter{newMeter(0, 0, 0).fixedWork(n), newMeter(0, 0, 0).fixedWork(n)}
}

// TestWorkloadsShort runs every workload end to end in a short mode: no
// transfer may fail and every end-to-end metric must be measured.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var tot totals
			vals, err := endToEnd(w, 7, 6*time.Second, &tot)
			if err != nil {
				t.Fatal(err)
			}
			if tot.failed != 0 || tot.attempted == 0 {
				t.Fatalf("failed %d of %d attempted", tot.failed, tot.attempted)
			}
			res, err := report(e2eMetrics, vals, tot)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range e2eMetrics {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, res.Metrics[m.name].Value)
				}
			}
		})
	}
}

// TestTracedShort runs the traced suite briefly and checks that it
// measures every per-layer metric.
func TestTracedShort(t *testing.T) {
	if testing.Short() {
		t.Skip("traced suite takes seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var tot totals
			vals, err := traced(w, 7, 2400*time.Millisecond, &tot)
			if err != nil {
				t.Fatal(err)
			}
			if tot.failed != 0 {
				t.Fatalf("failed %d of %d attempted", tot.failed, tot.attempted)
			}
			if _, err := report(layerMetrics, vals, tot); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"ladder.wcq_ring.ns_per_pair", "ladder.queue.ns_per_pair", "unbounded.rings_peak", "park.parks_per_transfer"} {
				if vals[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, vals[name])
				}
			}
		})
	}
}

// TestFaultyQueueCounted checks that the accounting catches a queue
// that drops one value in 1000 and answers one spurious empty.
func TestFaultyQueueCounted(t *testing.T) {
	t.Run("queue-pair", func(t *testing.T) {
		q, h0, h1 := twoHandles(t)
		r := newPairRig(&faulty[*wfqueue.Handle[uint64]]{h: h0, dropEvery: 1000, spuriousAt: 500},
			&faulty[*wfqueue.Handle[uint64]]{h: h1, dropEvery: 1000}, true, q.Footprint, 1)
		if o := r.run(fixed(20_000)); o.failed == 0 {
			t.Fatalf("faulty queue: failed 0 of %d", o.attempted)
		}
	})
	t.Run("queue-pair-spurious-empty-only", func(t *testing.T) {
		q, h0, h1 := twoHandles(t)
		r := newPairRig(&faulty[*wfqueue.Handle[uint64]]{h: h0, spuriousAt: 500},
			&faulty[*wfqueue.Handle[uint64]]{h: h1}, true, q.Footprint, 1)
		if o := r.run(fixed(2_000)); o.failed != 1 {
			t.Fatalf("one spurious empty: failed %d, want 1", o.failed)
		}
	})
	t.Run("unbounded-burst", func(t *testing.T) {
		q, err := wfqueue.NewUnbounded[uint64](2, wfqueue.WithRingCapacity(burstRingCap))
		if err != nil {
			t.Fatal(err)
		}
		var hs [2]*faulty[ubPair]
		for i := range hs {
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = &faulty[ubPair]{h: ubPair{h}, dropEvery: 1000, spuriousAt: 100}
		}
		r := newBurstRig(hs[0], hs[1], q.Footprint, q.Rings, 1)
		if o := r.run(fixed(1)); o.failed == 0 {
			t.Fatalf("faulty queue: failed 0 of %d", o.attempted)
		}
	})
	t.Run("chan-rpc", func(t *testing.T) {
		rg, err := chanRPC(1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := rg.(*rpcRig[*wfqueue.ChanHandle[uint64], *wfqueue.ChanHandle[uint64]])
		n := 0
		r.echo = func(v uint64) uint64 {
			if n++; n%1000 == 0 {
				return v + 1
			}
			return v
		}
		if o := r.run([]*meter{newMeter(0, 0, 0).fixedWork(5_000)}); o.failed == 0 {
			t.Fatalf("wrong replies: failed 0 of %d", o.attempted)
		}
	})
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program measures.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, defined %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range b.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: declared %+v, defined %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: declared %+v, defined %+v", i, m, d)
		}
	}
}

// TestHistBucketBounds checks the mirrored bucket layout against the
// histogram itself.
func TestHistBucketBounds(t *testing.T) {
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 12345, 1 << 20, 1<<40 + 3} {
		h := metrics.NewHistogram()
		h.Record(v)
		s := h.Snapshot()
		for i, n := range s.Buckets {
			if n == 0 {
				continue
			}
			lo, w := histBucketBounds(i)
			if v < lo || v >= lo+w {
				t.Errorf("value %d in bucket %d = [%d, %d)", v, i, lo, lo+w)
			}
		}
		if q := histQuantile(s, 0.5); q > float64(v) || q < float64(v)*15/16 {
			t.Errorf("histQuantile of {%d} = %v", v, q)
		}
	}
}

func TestQuantileAndIQM(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50}
	if q := quantile(s, 0.5); q != 30 {
		t.Errorf("p50 = %v, want 30", q)
	}
	if q := quantile(s, 0.99); q < 49 || q > 50 {
		t.Errorf("p99 = %v, want in [49, 50]", q)
	}
	if m := iqm([]float64{100, 1, 2, 3, 4, 5, 6, -100}); m != 3.5 {
		t.Errorf("iqm = %v, want 3.5", m)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
