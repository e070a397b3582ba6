package main

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/metrics"
	"repro/internal/pad"
)

// meter records one worker's progress during a timed phase: a mark at
// every interval boundary (or round end) and a sample of per-call
// latencies. All storage is allocated before timing starts, so the
// measured loops never allocate on its behalf.
type meter struct {
	start   time.Time
	width   time.Duration // interval width for due; 0 disables marking
	next    time.Duration
	end     time.Duration // phase length; due reports true once reached
	maxOps  uint64        // fixed-work phases (warm-up): due once reached
	ops     uint64        // the worker's work as of its last due call
	marks   []mark
	samples []uint32 // nanoseconds
}

// mark is a worker's cumulative progress at one boundary.
type mark struct {
	at      time.Duration
	ops     uint64
	samples int
}

// newMeter returns a meter for a phase of length d measured in
// intervals of the given width, with room for maxSamples latencies.
func newMeter(d, width time.Duration, maxSamples int) *meter {
	// Marks come at interval boundaries, or at round ends at most
	// every 10ms.
	n := 4 + int(d/max(width, 10*time.Millisecond))
	return &meter{
		width:   width,
		next:    width,
		end:     d,
		maxOps:  math.MaxUint64,
		marks:   make([]mark, 0, n),
		samples: make([]uint32, 0, maxSamples),
	}
}

// fixedWork turns the meter into a warm-up meter: due reports true
// after ops operations, whatever the time.
func (m *meter) fixedWork(ops uint64) *meter {
	m.maxOps, m.end, m.width = ops, time.Duration(math.MaxInt64), 0
	return m
}

// sample stores one latency while room remains.
func (m *meter) sample(d time.Duration) {
	if len(m.samples) < cap(m.samples) {
		m.samples = append(m.samples, uint32(min(d, math.MaxUint32)))
	}
}

// mark records cumulative progress now.
func (m *meter) mark(at time.Duration, ops uint64) {
	if len(m.marks) < cap(m.marks) {
		m.marks = append(m.marks, mark{at, ops, len(m.samples)})
	}
}

// due marks every interval boundary passed since the last call and
// reports whether the phase is over.
func (m *meter) due(now time.Time, ops uint64) bool {
	m.ops = ops
	at := now.Sub(m.start)
	if m.width > 0 && at >= m.next {
		m.mark(at, ops)
		for at >= m.next {
			m.next += m.width
		}
	}
	return at >= m.end || ops >= m.maxOps
}

// intervals turns the marks of workers that ran side by side into
// per-interval figures: the summed rate of ops per second, and the p50
// and p99 of the latencies all workers sampled in the interval. The
// first interval is dropped as settling time; scale converts a
// worker's ops into transfers.
func intervals(ms []*meter, scale float64) (rates, p50s, p99s []float64) {
	k := len(ms[0].marks)
	for _, m := range ms[1:] {
		k = min(k, len(m.marks))
	}
	var buf []uint32
	for i := 1; i < k; i++ {
		rate := 0.0
		buf = buf[:0]
		for _, m := range ms {
			a, b := m.marks[i-1], m.marks[i]
			rate += float64(b.ops-a.ops) / (b.at - a.at).Seconds()
			buf = append(buf, m.samples[a.samples:b.samples]...)
		}
		rates = append(rates, rate*scale)
		if len(buf) > 0 {
			slices.Sort(buf)
			p50s = append(p50s, quantile(buf, 0.50))
			p99s = append(p99s, quantile(buf, 0.99))
		}
	}
	return rates, p50s, p99s
}

// quantile returns the q-quantile of sorted values, interpolating
// linearly between the two nearest ranks.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

// median returns the median of xs (0 for none), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns the k-th quartile of xs (k = 2 is the median).
func quartile(xs []float64, k int) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)*k/4]
}

// iqm is the interquartile mean of xs: the mean of its middle half,
// as robust to stray intervals as the median but not stuck to the
// nanosecond grid of any one interval's quantile.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// histQuantile is the q-quantile of an internal/metrics histogram,
// interpolated within the bucket that holds the rank, so that a
// quantile moves smoothly instead of jumping between bucket midpoints.
func histQuantile(s metrics.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo, w := histBucketBounds(i)
			v := float64(lo) + (rank-cum)/float64(n)*float64(w)
			return min(v, float64(s.Max))
		}
		cum += float64(n)
	}
	return float64(s.Max)
}

// histBucketBounds mirrors the histogram's bucket layout: 8 exact
// buckets, then 8 sub-buckets per power of two.
func histBucketBounds(idx int) (lo, width uint64) {
	if idx < 8 {
		return uint64(idx), 1
	}
	octave := uint(idx-8) / 8
	sub := uint64(idx-8) % 8
	return (8 + sub) << octave, 1 << octave
}

// maxProducers bounds the producer ids a value may carry: every
// workload runs at most two producing goroutines.
const maxProducers = 2

// source produces one goroutine's values, checker.Encode(producer,
// seq) with seq counting up from a seeded base, and keeps what a
// consumer must eventually see: the count and a checksum.
type source struct {
	producer int
	seq      uint32
	n        uint64
	sum      uint64
}

func newSource(producer int, base uint32) source {
	return source{producer: producer, seq: base}
}

// reset starts a new accounting period; the sequence carries on.
func (s *source) reset() { s.n, s.sum = 0, 0 }

// peek returns the next value without committing it.
func (s *source) peek() uint64 { return checker.Encode(s.producer, int(s.seq)) }

// advance commits the value peek returned: it was handed over.
func (s *source) advance() {
	s.n++
	s.sum += mix(s.peek())
	s.seq++
}

// tally is one consumer's record of what it received, per producer:
// the count, the checksum and the last sequence number.
type tally struct {
	n    [maxProducers]uint64
	sum  [maxProducers]uint64
	last [maxProducers]int64
}

func newTally() tally {
	var t tally
	for i := range t.last {
		t.last[i] = -1
	}
	return t
}

// reset starts a new accounting period; the order check carries on.
func (t *tally) reset() { t.n, t.sum = [maxProducers]uint64{}, [maxProducers]uint64{} }

// observe records v and reports whether it is acceptable: from a known
// producer and later than that producer's last value seen here
// (per-producer FIFO).
func (t *tally) observe(v uint64) bool {
	p, seq := checker.Decode(v)
	if p >= maxProducers || int64(seq) <= t.last[p] {
		return false
	}
	t.last[p] = int64(seq)
	t.n[p]++
	t.sum[p] += mix(v)
	return true
}

// reconcile compares what the sources sent with what the consumers
// received and returns the number of values lost or duplicated: the
// count difference per producer, or 1 where counts agree but the
// checksums do not.
func reconcile(srcs []*source, ts []*tally) uint64 {
	var bad uint64
	for _, s := range srcs {
		var n, sum uint64
		for _, t := range ts {
			n += t.n[s.producer]
			sum += t.sum[s.producer]
		}
		switch {
		case n != s.n:
			bad += max(n, s.n) - min(n, s.n)
		case sum != s.sum:
			bad++
		}
	}
	return bad
}

// mix is the splitmix64 finalizer: the checksum adds mixed values so
// that a lost value and a duplicated one cannot cancel out.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// barrier is a spinning, sense-reversing barrier for the workers of a
// phased workload. The last worker to arrive may inspect shared state
// while the others wait, then releases them.
type barrier struct {
	n     int32
	_     pad.Line
	count atomic.Int32
	sense atomic.Uint32
	_     pad.Line
}

// arrive flips the caller's local sense and waits for the others. It
// returns true to exactly one caller, the last to arrive, which must
// call release; the others return false once released.
func (b *barrier) arrive(local *uint32) bool {
	*local ^= 1
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		return true
	}
	for spins := 0; b.sense.Load() != *local; spins++ {
		if spins > 100 {
			runtime.Gosched()
		}
	}
	return false
}

func (b *barrier) release(local uint32) { b.sense.Store(local) }

// reset readies the barrier for workers whose local senses start at 0.
// No worker may be using it.
func (b *barrier) reset() {
	b.count.Store(0)
	b.sense.Store(0)
}
