package main

import (
	"sync"
	"time"

	wfqueue "repro"
	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/ringcore"
	"repro/internal/scq"
	"repro/internal/wcq"
)

// pairCapacity is the queue size of the pairwise workload: the paper's
// 2^16-entry ring.
const pairCapacity = 1 << 16

const (
	pairChunk       = 256 // pairs between clock checks
	pairSampleEvery = 64  // every 64th pair is timed
)

// pairer is the surface the pairwise loop drives. Every rung of the
// ladder is adapted to it, so that all rungs run the same loop.
type pairer interface {
	Enqueue(v uint64) bool
	Dequeue() (uint64, bool)
}

// pairRig is two handles on one queue, ready for the paper's pairwise
// loop (Fig. 11b): each goroutine enqueues a value, then dequeues one.
// The queue holds at most two values, so an empty dequeue or a full
// enqueue is a failure.
type pairRig[P pairer] struct {
	h [2]P
	// verify is false for the index ring, whose values carry no
	// producer identity; there only empty dequeues are checked.
	verify    bool
	footprint func() uint64
	src       [2]source
	tally     [2]tally
}

func newPairRig[P pairer](h0, h1 P, verify bool, footprint func() uint64, seed uint64) *pairRig[P] {
	r := &pairRig[P]{h: [2]P{h0, h1}, verify: verify, footprint: footprint}
	for i := range r.src {
		r.src[i] = newSource(i, seqBase(seed, i))
		r.tally[i] = newTally()
	}
	return r
}

// run drives both goroutines, each until its meter says stop.
func (r *pairRig[P]) run(ms []*meter) outcome {
	for i := range r.src {
		r.src[i].reset()
		r.tally[i].reset()
	}
	var fails [2]uint64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range 2 {
		ms[i].start = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			fails[i] = pairLoop(r.h[i], &r.src[i], &r.tally[i], r.verify, ms[i])
		}()
	}
	wg.Wait()
	o := outcome{elapsed: time.Since(start), failed: fails[0] + fails[1]}
	// Values stranded by a failure are still owed to their consumer.
	for {
		v, ok := r.h[0].Dequeue()
		if !ok {
			break
		}
		if r.verify && !r.tally[0].observe(v) {
			o.failed++
		}
	}
	if r.verify {
		o.failed += reconcile([]*source{&r.src[0], &r.src[1]}, []*tally{&r.tally[0], &r.tally[1]})
	}
	for _, m := range ms {
		o.attempted += m.ops
	}
	o.transfers = o.attempted
	o.meters, o.scale = ms, 1
	if r.footprint != nil {
		o.peakFP = r.footprint()
		o.retainedFP = o.peakFP
	}
	return o
}

// pairLoop is one goroutine's share of the pairwise loop, run until
// its meter says stop.
func pairLoop[P pairer](h P, src *source, t *tally, verify bool, m *meter) (fails uint64) {
	for ops := uint64(0); !m.due(time.Now(), ops); {
		for i := range pairChunk {
			var t0 time.Time
			timed := i%pairSampleEvery == 0
			if timed {
				t0 = time.Now()
			}
			if h.Enqueue(src.peek()) {
				src.advance()
			} else {
				fails++
			}
			v, ok := h.Dequeue()
			if timed {
				m.sample(time.Since(t0))
			}
			switch {
			case !ok:
				fails++
			case verify && !t.observe(v):
				fails++
			}
		}
		ops += pairChunk
	}
	return fails
}

// The ladder's rungs: the same pairwise loop, one layer added per rung.

// ringPair adapts the wCQ index ring. It carries indices, not values,
// so a value is reduced to an index below the ring's capacity.
type ringPair struct {
	h    *wcq.Handle
	mask uint64
}

func (r ringPair) Enqueue(v uint64) bool   { r.h.Enqueue(v & r.mask); return true }
func (r ringPair) Dequeue() (uint64, bool) { return r.h.Dequeue() }

// chanPair adapts a buffered Go channel, the host reference.
type chanPair chan uint64

func (c chanPair) Enqueue(v uint64) bool {
	select {
	case c <- v:
		return true
	default:
		return false
	}
}

func (c chanPair) Dequeue() (uint64, bool) {
	select {
	case v := <-c:
		return v, true
	default:
		return 0, false
	}
}

// timedPair times every traceEvery-th call of each kind into
// per-goroutine histograms.
type timedPair[P pairer] struct {
	h        P
	nEnq     uint32
	nDeq     uint32
	enq, deq *metrics.Histogram
}

func (t *timedPair[P]) Enqueue(v uint64) bool {
	t.nEnq++
	if t.nEnq%traceEvery != 0 {
		return t.h.Enqueue(v)
	}
	t0 := time.Now()
	ok := t.h.Enqueue(v)
	t.enq.RecordSince(t0)
	return ok
}

func (t *timedPair[P]) Dequeue() (uint64, bool) {
	t.nDeq++
	if t.nDeq%traceEvery != 0 {
		return t.h.Dequeue()
	}
	t0 := time.Now()
	v, ok := t.h.Dequeue()
	t.deq.RecordSince(t0)
	return v, ok
}

// pairHists are the per-goroutine call histograms of a traced rig.
type pairHists struct{ enq, deq [2]*metrics.Histogram }

func newPairHists() *pairHists {
	var h pairHists
	for i := range 2 {
		h.enq[i], h.deq[i] = metrics.NewHistogram(), metrics.NewHistogram()
	}
	return &h
}

func (h *pairHists) wrap(i int, p pairer) *timedPair[pairer] {
	return &timedPair[pairer]{h: p, enq: h.enq[i], deq: h.deq[i]}
}

// snapshots merges the goroutines' histograms.
func (h *pairHists) snapshots() (enq, deq metrics.HistogramSnapshot) {
	for i := range 2 {
		enq.Merge(h.enq[i].Snapshot())
		deq.Merge(h.deq[i].Snapshot())
	}
	return enq, deq
}

// rig is a built workload instance: run it with one meter per goroutine.
type rig interface {
	run(ms []*meter) outcome
}

// queuePair builds the queue-pair workload on the public Queue. With
// sink set the queue records into it; with hists set the calls are
// timed.
func queuePair(seed uint64, sink *metrics.Sink, hists *pairHists) (rig, error) {
	var opts []wfqueue.Option
	if sink != nil {
		opts = append(opts, wfqueue.WithMetrics(sink))
	}
	q, err := wfqueue.New[uint64](pairCapacity, 2, opts...)
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
	if hists != nil {
		return newPairRig(hists.wrap(0, h0), hists.wrap(1, h1), true, q.Footprint, seed), nil
	}
	return newPairRig(h0, h1, true, q.Footprint, seed), nil
}

// wcqRingPair is the bottom rung: the wCQ index ring alone.
func wcqRingPair(seed uint64) (rig, error) {
	r, err := wcq.NewRing(pairCapacity, 2, nil)
	if err != nil {
		return nil, err
	}
	h0, err := r.Register()
	if err != nil {
		return nil, err
	}
	h1, err := r.Register()
	if err != nil {
		return nil, err
	}
	mask := uint64(pairCapacity - 1)
	return newPairRig(ringPair{h0, mask}, ringPair{h1, mask}, false, r.Footprint, seed), nil
}

// wcqQueuePair adds the Figure-2 payload layer: aq/fq rings plus data.
func wcqQueuePair(seed uint64) (rig, error) {
	q, err := wcq.NewQueue[uint64](pairCapacity, 2, nil)
	if err != nil {
		return nil, err
	}
	h0, err := q.Register()
	if err != nil {
		return nil, err
	}
	h1, err := q.Register()
	if err != nil {
		return nil, err
	}
	return newPairRig(h0, h1, true, q.Footprint, seed), nil
}

// ringcorePair adds the ringcore composition contract (an interface
// handle) over the same wCQ queue.
func ringcorePair(seed uint64) (rig, error) {
	c, err := ringcore.New[uint64](ringcore.KindWCQ, pairCapacity, 2, nil)
	if err != nil {
		return nil, err
	}
	h0, err := c.Acquire()
	if err != nil {
		return nil, err
	}
	h1, err := c.Acquire()
	if err != nil {
		return nil, err
	}
	return newPairRig(h0, h1, true, c.Footprint, seed), nil
}

// scqQueuePair is the lock-free SCQ reference rung.
func scqQueuePair(seed uint64) (rig, error) {
	q, err := scq.NewQueue[uint64](pairCapacity, atomicx.NativeFAA)
	if err != nil {
		return nil, err
	}
	return newPairRig(q.Register(), q.Register(), true, q.Footprint, seed), nil
}

// goChanPair is the buffered Go channel reference rung.
func goChanPair(seed uint64) (rig, error) {
	c := make(chanPair, pairCapacity)
	return newPairRig(c, c, true, nil, seed), nil
}
