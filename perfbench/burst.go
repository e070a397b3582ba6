package main

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"
	"time"

	wfqueue "repro"
	"repro/internal/metrics"
	"repro/internal/pad"
)

const (
	// burstRingCap is the unbounded queue's ring size: small, so that
	// bursts span many rings and rings fill, seal, retire and recycle.
	burstRingCap = 256
	// burstsPerRound, burstMin and burstAlpha shape one round: the
	// burst sizes are the quantiles of a Pareto(burstMin, burstAlpha)
	// distribution, so every round holds the same heavy-tailed multiset
	// (largest 21080 values, 83 rings) and only the order is seeded.
	burstsPerRound   = 64
	burstMin         = 256
	burstAlpha       = 1.1
	burstSampleEvery = 64 // every 64th call is timed
)

// burstSizes is one round's multiset of burst sizes.
func burstSizes() []int {
	s := make([]int, burstsPerRound)
	for i := range s {
		u := (float64(i) + 0.5) / burstsPerRound
		s[i] = int(burstMin * math.Pow(1-u, -1/burstAlpha))
	}
	return s
}

// burstRig is two handles on one queue, run in phases: in each burst
// both goroutines enqueue their share, meet at a barrier, then both
// drain the queue until it reads empty and meet again. The goroutine
// last at a barrier inspects the queue while the other waits.
type burstRig[P pairer] struct {
	h         [2]P
	footprint func() uint64
	rings     func() int // nil for a bounded queue
	rng       *rand.Rand
	order     []int // this round's burst sizes, in order
	src       [2]source
	tally     [2]tally
	bar       barrier
	drained   [2]paddedCount

	// Written only by the goroutine last at a barrier.
	stop                bool
	markNow             bool // an interval ended with this burst
	start               time.Time
	end, width, next    time.Duration // phase length, interval, next boundary
	maxRounds, rounds   int
	bursts, failed      uint64 // failed counts drained-count mismatches
	peakFP, retainedFP  uint64
	peakRings           int
	burstStart, top     time.Time
	enqWall, deqWall    time.Duration
	enqueued, delivered uint64
}

type paddedCount struct {
	n uint64
	_ pad.Line
}

func newBurstRig[P pairer](h0, h1 P, footprint func() uint64, rings func() int, seed uint64) *burstRig[P] {
	r := &burstRig[P]{
		h:         [2]P{h0, h1},
		footprint: footprint,
		rings:     rings,
		rng:       rand.New(rand.NewPCG(seed, 0x6275727374)),
		order:     burstSizes(),
		bar:       barrier{n: 2},
	}
	for i := range r.src {
		r.src[i] = newSource(i, seqBase(seed, i))
		r.tally[i] = newTally()
	}
	return r
}

// run plays whole rounds until the meters' phase length has passed, or
// for the meters' work in rounds when they are warm-up meters.
func (r *burstRig[P]) run(ms []*meter) outcome {
	r.stop, r.rounds = false, 0
	r.bursts, r.failed, r.enqueued, r.delivered = 0, 0, 0, 0
	r.enqWall, r.deqWall = 0, 0
	r.peakFP, r.retainedFP, r.peakRings = 0, 0, 0
	r.bar.reset() // each worker's sense starts from 0 again
	for i := range r.src {
		r.src[i].reset()
		r.tally[i].reset()
	}
	start := time.Now()
	r.start, r.end, r.width, r.next = start, ms[0].end, ms[0].width, ms[0].width
	// A warm-up meter's work counts rounds.
	r.maxRounds = math.MaxInt
	if ms[0].maxOps != math.MaxUint64 {
		r.maxRounds = int(ms[0].maxOps)
	}
	r.shuffle()
	r.burstStart = start
	var fails [2]uint64
	var wg sync.WaitGroup
	for i := range 2 {
		ms[i].start = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			fails[i] = r.worker(i, ms[i])
		}()
	}
	wg.Wait()
	o := outcome{
		elapsed:    time.Since(start),
		failed:     r.failed + fails[0] + fails[1],
		bursts:     r.bursts,
		rings:      r.peakRings,
		enqWall:    r.enqWall,
		deqWall:    r.deqWall,
		attempted:  r.enqueued,
		transfers:  r.delivered,
		peakFP:     r.peakFP,
		retainedFP: r.retainedFP,
	}
	o.failed += reconcile([]*source{&r.src[0], &r.src[1]}, []*tally{&r.tally[0], &r.tally[1]})
	o.meters, o.scale = ms, 1
	return o
}

func (r *burstRig[P]) shuffle() {
	r.rng.Shuffle(len(r.order), func(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] })
}

// worker is one goroutine's side of the phases. Its meter counts the
// values it dequeued; it marks at the end of the burst in which an
// interval boundary passed.
func (r *burstRig[P]) worker(w int, m *meter) (fails uint64) {
	h, src, t := r.h[w], &r.src[w], &r.tally[w]
	var sense uint32
	var calls, deq uint64
	timed := func() bool { calls++; return calls%burstSampleEvery == 0 }
	for {
		for _, size := range r.order {
			share := size / 2
			if w == 0 {
				share += size % 2
			}
			for range share {
				if timed() {
					t0 := time.Now()
					ok := h.Enqueue(src.peek())
					m.sample(time.Since(t0))
					if !ok {
						fails++
						continue
					}
				} else if !h.Enqueue(src.peek()) {
					fails++
					continue
				}
				src.advance()
			}
			if r.bar.arrive(&sense) {
				r.atTop()
				r.bar.release(sense)
			}
			var n uint64
			for {
				var v uint64
				var ok bool
				if timed() {
					t0 := time.Now()
					v, ok = h.Dequeue()
					m.sample(time.Since(t0))
				} else {
					v, ok = h.Dequeue()
				}
				if !ok {
					break
				}
				n++
				if !t.observe(v) {
					fails++
				}
			}
			deq += n
			r.drained[w].n = n
			if r.bar.arrive(&sense) {
				r.atBottom(size)
				r.bar.release(sense)
			}
			if r.markNow {
				m.mark(time.Since(m.start), deq)
			}
		}
		if r.bar.arrive(&sense) {
			r.endRound()
			r.bar.release(sense)
		}
		if r.stop {
			m.ops = deq
			return fails
		}
	}
}

// atTop runs when both goroutines have enqueued their share.
func (r *burstRig[P]) atTop() {
	r.top = time.Now()
	r.enqWall += r.top.Sub(r.burstStart)
	r.peakFP = max(r.peakFP, r.footprint())
	if r.rings != nil {
		r.peakRings = max(r.peakRings, r.rings())
	}
}

// atBottom runs when both goroutines have drained the queue empty.
func (r *burstRig[P]) atBottom(size int) {
	end := time.Now()
	r.deqWall += end.Sub(r.top)
	r.burstStart = end
	got := r.drained[0].n + r.drained[1].n
	want := uint64(size)
	if got != want {
		r.failed += max(got, want) - min(got, want)
	}
	r.bursts++
	r.enqueued += want
	r.delivered += got
	r.retainedFP = max(r.retainedFP, r.footprint())
	at := end.Sub(r.start)
	r.markNow = r.width > 0 && at >= r.next
	for r.markNow && at >= r.next {
		r.next += r.width
	}
}

// endRound decides whether to play another round, in a new seeded
// order. Runs stop only at round ends, so that every run plays each
// burst size, the largest included.
func (r *burstRig[P]) endRound() {
	r.rounds++
	if r.rounds >= r.maxRounds || time.Since(r.start) >= r.end {
		r.stop = true
		return
	}
	r.shuffle()
}

// ubPair adapts an UnboundedHandle, whose Enqueue cannot fail.
type ubPair struct {
	h *wfqueue.UnboundedHandle[uint64]
}

func (u ubPair) Enqueue(v uint64) bool   { u.h.Enqueue(v); return true }
func (u ubPair) Dequeue() (uint64, bool) { return u.h.Dequeue() }

// unboundedBurst builds unbounded-burst on an UnboundedQueue of wCQ
// rings. With sink set the queue records into it; with hists set the
// calls are timed.
func unboundedBurst(seed uint64, sink *metrics.Sink, hists *pairHists) (rig, error) {
	opts := []wfqueue.Option{wfqueue.WithRingCapacity(burstRingCap)}
	if sink != nil {
		opts = append(opts, wfqueue.WithMetrics(sink))
	}
	q, err := wfqueue.NewUnbounded[uint64](2, opts...)
	if err != nil {
		return nil, err
	}
	var hs [2]ubPair
	for i := range hs {
		h, err := q.Handle()
		if err != nil {
			return nil, err
		}
		hs[i] = ubPair{h}
	}
	if hists != nil {
		return newBurstRig(hists.wrap(0, hs[0]), hists.wrap(1, hs[1]), q.Footprint, q.Rings, seed), nil
	}
	return newBurstRig(hs[0], hs[1], q.Footprint, q.Rings, seed), nil
}

// boundedBurst plays the same bursts on a bounded Queue large enough
// for the largest burst: the reference for the unbounded layer's cost.
func boundedBurst(seed uint64) (rig, error) {
	largest := uint64(burstSizes()[burstsPerRound-1])
	q, err := wfqueue.New[uint64](1<<bits.Len64(largest-1), 2)
	if err != nil {
		return nil, err
	}
	h0, err := q.Handle()
	if err != nil {
		return nil, err
	}
	h1, err := q.Handle()
	if err != nil {
		return nil, err
	}
	return newBurstRig(h0, h1, q.Footprint, nil, seed), nil
}
