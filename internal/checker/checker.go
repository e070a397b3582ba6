// Package checker is the one correctness driver applied to every
// queue implementation in this repository. Run verifies the three
// properties a linearizable MPMC FIFO must exhibit under concurrency:
//
//  1. No loss: every enqueued value is eventually dequeued.
//  2. No duplication: no value is dequeued twice.
//  3. Per-producer FIFO: each consumer observes any one producer's
//     values in strictly increasing sequence order (a consequence of
//     linearizability that is cheap to check without full history
//     analysis).
//
// A watchdog inside every round turns a run that stops delivering into
// a livelock error instead of a hang. Open acquires a queue's handles
// once and Session.Round verifies one round on them, so a long run
// ages one queue; Run is Open plus one Round. Footprint checks the
// paper's bounded-memory claim across fill/drain cycles; RunSPSC and
// RunDrain are the strict-order and full/empty special cases.
//
// Values are encoded as producerID<<32 | sequence.
package checker

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/queueapi"
)

// Config sizes a checker run.
type Config struct {
	Producers   int
	Consumers   int
	PerProducer int
	// Capacity is the queue's capacity as the caller built it. It only
	// caps the batch pre-phase's batch at Capacity/2, so the idle
	// queue can take it whole; 0 means no cap. Producers retry a full
	// queue whatever it is.
	Capacity int
	// Batch bounds operation length: each one's is drawn from a seeded
	// stream in [1, Batch]. Length 1 uses Enqueue/Dequeue (Send/Recv),
	// longer ones the batch calls (SendMany/RecvMany when blocking), so
	// one handle mixes both. Batch > 1 also runs the batch atomicity
	// pre-phase. 0 means 1.
	Batch int
	// Blocking drives q (a queueapi.Closer with Waitable handles)
	// through parked sends and receives; q is closed once every
	// producer finishes and consumers drain until ErrClosed, so the
	// exactly-once sweep proves Close loses nothing.
	Blocking bool
}

// Validate rejects a Config that cannot describe a run: every run
// needs a producer, a consumer and a value per producer, and a
// producer's sequence numbers must fit Encode's 32-bit field.
func (cfg Config) Validate() error {
	switch {
	case cfg.Producers < 1:
		return fmt.Errorf("checker: %d producers, need at least 1", cfg.Producers)
	case cfg.Consumers < 1:
		return fmt.Errorf("checker: %d consumers, need at least 1", cfg.Consumers)
	case cfg.PerProducer < 1:
		return fmt.Errorf("checker: %d values per producer, need at least 1", cfg.PerProducer)
	case uint64(cfg.PerProducer) > math.MaxUint32:
		return fmt.Errorf("checker: %d values per producer overflow the 32-bit sequence field", cfg.PerProducer)
	}
	return nil
}

// progressWindow is the livelock watchdog's sampling period: a round
// fails once two consecutive windows deliver no value. It is far longer than
// a scheduler stall on a loaded host.
const progressWindow = time.Second

// Encode builds a checker payload value.
func Encode(producer, seq int) uint64 { return uint64(producer)<<32 | uint64(seq) }

// Decode splits a checker payload value.
func Decode(v uint64) (producer, seq int) { return int(v >> 32), int(v & 0xffffffff) }

// verifier holds the property-checking state of one round, shared by
// every producer and consumer, plus the round's stop signal.
type verifier struct {
	cfg       Config
	total     int
	delivered []atomic.Int32
	consumed  atomic.Int64
	errs      chan error
	stop      atomic.Bool
	closer    queueapi.Closer // nil unless cfg.Blocking
	closed    atomic.Bool
}

func newVerifier(cfg Config, closer queueapi.Closer) *verifier {
	total := cfg.Producers * cfg.PerProducer
	return &verifier{
		cfg:       cfg,
		total:     total,
		delivered: make([]atomic.Int32, total),
		errs:      make(chan error, cfg.Producers+cfg.Consumers+16),
		closer:    closer,
	}
}

// report records an error without blocking: first errors win.
func (vf *verifier) report(err error) {
	select {
	case vf.errs <- err:
	default:
	}
}

// fail records err and stops the run: producers and consumers return
// at their next full/empty poll, and a blocking queue is closed so
// parked goroutines wake.
func (vf *verifier) fail(err error) {
	vf.report(err)
	vf.stop.Store(true)
	_ = vf.closeQueue() // the run already failed; a close error adds nothing
}

// closeQueue closes a blocking queue exactly once, whether the drain
// or a failure asks first.
func (vf *verifier) closeQueue() error {
	if vf.closer == nil || !vf.closed.CompareAndSwap(false, true) {
		return nil
	}
	return vf.closer.Close()
}

// observe validates one dequeued value against a consumer's
// per-producer order state (lastSeq is consumer-local).
func (vf *verifier) observe(v uint64, lastSeq map[int]int) {
	p, seq := Decode(v)
	if p >= vf.cfg.Producers || seq >= vf.cfg.PerProducer {
		vf.report(fmt.Errorf("corrupt value %#x", v))
		vf.consumed.Add(1)
		return
	}
	if prev, seen := lastSeq[p]; seen && seq <= prev {
		vf.report(fmt.Errorf("per-producer FIFO violation: producer %d seq %d after %d", p, seq, prev))
	}
	lastSeq[p] = seq
	id := p*vf.cfg.PerProducer + seq
	if vf.delivered[id].Add(1) != 1 {
		vf.report(fmt.Errorf("value %#x delivered more than once", v))
	}
	vf.consumed.Add(1)
}

// done reports whether every produced value has been observed.
func (vf *verifier) done() bool { return vf.consumed.Load() >= int64(vf.total) }

// finish returns the first reported error, or the result of the
// exactly-once sweep.
func (vf *verifier) finish() error {
	close(vf.errs)
	if err, ok := <-vf.errs; ok {
		return err
	}
	for id := range vf.delivered {
		if vf.delivered[id].Load() != 1 {
			p, seq := id/vf.cfg.PerProducer, id%vf.cfg.PerProducer
			return fmt.Errorf("value (p=%d, seq=%d) delivered %d times", p, seq, vf.delivered[id].Load())
		}
	}
	return nil
}

// watch is the livelock watchdog. It samples the delivered count once
// per progressWindow until finished closes, and fails the round once two
// consecutive windows delivered nothing.
func (vf *verifier) watch(finished <-chan struct{}) {
	tick := time.NewTicker(progressWindow)
	defer tick.Stop()
	var last int64
	idle := 0
	for {
		select {
		case <-finished:
			return
		case <-tick.C:
		}
		now := vf.consumed.Load()
		if now != last {
			last, idle = now, 0
			continue
		}
		if idle++; idle == 2 {
			vf.fail(fmt.Errorf("livelock: no value delivered for %v (%d of %d delivered)",
				2*progressWindow, now, vf.total))
			return
		}
	}
}

// Run drives q with cfg for one round (Open, then Round) and returns
// an error describing the first violated property, if any.
func Run(q queueapi.Queue, cfg Config) error {
	s, err := Open(q, cfg)
	if err != nil {
		return err
	}
	return s.Round()
}

// Session is one queue's checker endpoints, acquired once by Open so
// every Round reuses the same handles and a long run ages one queue
// without growing its thread census.
type Session struct {
	cfg    Config
	batch  int
	pre    queueapi.Handle // batch pre-phase handle; nil when batch is 1
	eps    []endpoint      // producers, then consumers
	closer queueapi.Closer // nil unless cfg.Blocking
	spent  error           // why no further Round can run
}

// Open validates cfg and acquires q's endpoints: one per producer and
// consumer, plus the batch pre-phase handle when cfg.Batch > 1.
func Open(q queueapi.Queue, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, batch: max(cfg.Batch, 1)}
	if cfg.Blocking {
		c, ok := q.(queueapi.Closer)
		if !ok {
			return nil, fmt.Errorf("checker: %s does not implement queueapi.Closer", q.Name())
		}
		s.closer = c
	}
	if s.batch > 1 {
		h, err := q.Handle()
		if err != nil {
			return nil, fmt.Errorf("batch-atomicity handle: %w", err)
		}
		s.pre = h
	}
	s.eps = make([]endpoint, cfg.Producers+cfg.Consumers)
	for i := range s.eps {
		e, err := newEndpoint(q, cfg.Blocking, s.batch)
		if err != nil {
			return nil, fmt.Errorf("handle %d: %w", i, err)
		}
		s.eps[i] = e
	}
	return s, nil
}

// Round runs one verified round on the session's endpoints with a
// fresh verifier. With Batch > 1 it also checks the batch contract:
// atomicity in the pre-phase, and partial-success accounting under
// concurrency — short enqueue counts are prefixes (the FIFO check
// proves producers resume without reordering) and dequeue counts match
// what was written (sentinel-poisoned buffers catch over-writes, the
// exactly-once sweep under-counts). A misreported count or a stall
// ends the round with an error rather than a hang.
//
// A blocking round closes the queue, and a failed round may leave
// values in it that the next round would count as its own, so after
// either Round returns an error.
func (s *Session) Round() (err error) {
	if s.spent != nil {
		return s.spent
	}
	defer func() {
		if err != nil {
			s.spent = fmt.Errorf("checker: an earlier round failed: %w", err)
		} else if s.closer != nil {
			s.spent = errors.New("checker: a blocking round closed the queue; Open a new one")
		}
	}()
	cfg, batch := s.cfg, s.batch
	if s.pre != nil {
		if err := checkBatchAtomicity(s.pre, cfg, batch); err != nil {
			return fmt.Errorf("batch atomicity: %w", err)
		}
	}
	vf := newVerifier(cfg, s.closer)

	var producers, consumers sync.WaitGroup
	for p, e := range s.eps[:cfg.Producers] {
		producers.Add(1)
		go func() {
			defer producers.Done()
			vf.produce(p, e, backoff.NewRand(uint64(p)), batch)
		}()
	}
	for c, e := range s.eps[cfg.Producers:] {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			vf.consume(e, backoff.NewRand(uint64(cfg.Producers+c)), batch)
		}()
	}
	finished := make(chan struct{})
	go func() {
		producers.Wait()
		if err := vf.closeQueue(); err != nil {
			vf.fail(fmt.Errorf("checker: Close: %w", err))
		}
		consumers.Wait()
		close(finished)
	}()
	vf.watch(finished)
	<-finished
	return vf.finish()
}

// produce enqueues producer p's values in order, in operations whose
// lengths come from rng. A full queue is retried until the stop
// signal; a misreported count stops the run.
func (vf *verifier) produce(p int, e endpoint, rng backoff.Rand, batch int) {
	buf := make([]uint64, batch)
	for i := 0; i < vf.cfg.PerProducer; {
		vs := buf[:min(1+rng.Intn(batch), vf.cfg.PerProducer-i)]
		for j := range vs {
			vs[j] = Encode(p, i+j)
		}
		i += len(vs)
		for len(vs) > 0 {
			n, err := e.put(vs)
			if err != nil {
				vf.fail(fmt.Errorf("producer %d: %w", p, err))
				return
			}
			if n == 0 {
				if vf.stop.Load() {
					return
				}
				runtime.Gosched() // full: wait for consumers
			}
			vs = vs[n:]
		}
	}
}

// consume dequeues in operations whose lengths come from rng until
// every value is observed (nonblocking) or the queue reports closed
// and drained (blocking), or the stop signal.
func (vf *verifier) consume(e endpoint, rng backoff.Rand, batch int) {
	lastSeq := make(map[int]int, vf.cfg.Producers)
	buf := make([]uint64, batch)
	for vf.cfg.Blocking || !vf.done() {
		out := buf[:1+rng.Intn(batch)]
		for i := range out {
			out[i] = sentinel
		}
		n, err := e.take(out)
		if err != nil {
			if !errors.Is(err, queueapi.ErrClosed) {
				vf.fail(fmt.Errorf("consumer: %w", err))
			}
			return
		}
		if n == 0 {
			if vf.stop.Load() {
				return
			}
			runtime.Gosched()
			continue
		}
		for i := n; i < len(out); i++ {
			if out[i] != sentinel {
				vf.fail(fmt.Errorf("a %d-value dequeue wrote past its count at [%d]", n, i))
				return
			}
		}
		for _, v := range out[:n] {
			vf.observe(v, lastSeq)
		}
	}
}

// endpoint is one goroutine's handle on the queue under test. put
// enqueues a prefix of vs and take fills a prefix of out; both return
// the prefix length. A nonblocking endpoint returns 0 on full or
// empty; a blocking one parks, and its take reports ErrClosed once the
// queue is closed and drained. A count that breaks the operation's
// contract is an error.
type endpoint interface {
	put(vs []uint64) (int, error)
	take(out []uint64) (int, error)
}

func newEndpoint(q queueapi.Queue, blocking bool, batch int) (endpoint, error) {
	if !blocking {
		h, err := q.Handle()
		if err != nil {
			return nil, err
		}
		return spinEndpoint{h}, nil
	}
	w, err := queueapi.WaitableHandle(q)
	if err != nil {
		return nil, err
	}
	bw, ok := w.(queueapi.BatchWaitable)
	if !ok && batch > 1 {
		return nil, fmt.Errorf("%s handle is not batch-blocking (no SendMany/RecvMany)", q.Name())
	}
	return parkEndpoint{w, bw}, nil
}

// spinEndpoint drives a nonblocking queueapi.Handle.
type spinEndpoint struct{ h queueapi.Handle }

func (e spinEndpoint) put(vs []uint64) (int, error) {
	if len(vs) == 1 {
		if e.h.Enqueue(vs[0]) {
			return 1, nil
		}
		return 0, nil
	}
	n := queueapi.EnqueueBatch(e.h, vs)
	if n < 0 || n > len(vs) {
		return 0, fmt.Errorf("EnqueueBatch returned %d for a %d-element batch", n, len(vs))
	}
	return n, nil
}

func (e spinEndpoint) take(out []uint64) (int, error) {
	if len(out) == 1 {
		v, ok := e.h.Dequeue()
		if !ok {
			return 0, nil
		}
		out[0] = v
		return 1, nil
	}
	n := queueapi.DequeueBatch(e.h, out)
	if n < 0 || n > len(out) {
		return 0, fmt.Errorf("DequeueBatch returned %d for a %d-slot buffer", n, len(out))
	}
	return n, nil
}

// parkEndpoint drives a blocking handle; bw is nil when only scalar
// operations are drawn.
type parkEndpoint struct {
	w  queueapi.Waitable
	bw queueapi.BatchWaitable
}

func (e parkEndpoint) put(vs []uint64) (int, error) {
	if len(vs) == 1 {
		if err := e.w.Send(vs[0]); err != nil {
			return 0, fmt.Errorf("Send: %w", err)
		}
		return 1, nil
	}
	n, err := e.bw.SendMany(vs)
	if err != nil {
		return 0, fmt.Errorf("SendMany: %w", err)
	}
	if n != len(vs) {
		return 0, fmt.Errorf("SendMany delivered %d of %d without error", n, len(vs))
	}
	return n, nil
}

func (e parkEndpoint) take(out []uint64) (int, error) {
	if len(out) == 1 {
		v, err := e.w.Recv()
		if err != nil {
			return 0, err
		}
		out[0] = v
		return 1, nil
	}
	n, err := e.bw.RecvMany(out)
	if err != nil {
		return 0, err
	}
	if n < 1 || n > len(out) {
		return 0, fmt.Errorf("RecvMany returned %d values with nil error", n)
	}
	return n, nil
}

// sentinel poisons dequeue buffers so over-writing batch accounting
// (a DequeueBatch writing past its returned count) is detectable. It
// decodes to an impossible producer id, so a leak into real values is
// caught by observe as corruption.
const sentinel = ^uint64(0)

// checkBatchAtomicity is a round's deterministic batch pre-phase: the
// session's handle h on an otherwise idle queue, where every batch
// must take the uncontended fast path, so the batch atomicity contract is exact and
// checkable — EnqueueBatch(k) buffers exactly k values, DequeueBatch
// returns them contiguously in FIFO order relative to each other, and
// neither operation's count ever disagrees with what moved. The queue
// is left empty for the concurrent phase.
func checkBatchAtomicity(h queueapi.Handle, cfg Config, batch int) error {
	k := batch
	if cfg.Capacity > 0 && k > cfg.Capacity/2 {
		k = cfg.Capacity / 2
	}
	if k < 1 {
		k = 1
	}
	in := make([]uint64, k)
	out := make([]uint64, k+1) // one slot of slack: an over-count is a bug, not a crash
	for round := 0; round < 4; round++ {
		for i := range in {
			in[i] = Encode(0, round*k+i)
		}
		sent := 0
		for sent < k {
			n := queueapi.EnqueueBatch(h, in[sent:])
			if n < 0 || n > k-sent {
				return fmt.Errorf("EnqueueBatch returned %d for a %d-element batch", n, k-sent)
			}
			if n == 0 {
				if sent == 0 {
					return fmt.Errorf("idle queue rejected batch enqueue")
				}
				// The single-handle capacity is smaller than k (e.g. a
				// sharded queue's home shard holds capacity/shards):
				// adopt the discovered bound and verify with it.
				k = sent
				in = in[:k]
				break
			}
			sent += n
		}
		for i := range out {
			out[i] = sentinel
		}
		got := 0
		for got < k {
			n := queueapi.DequeueBatch(h, out[got:])
			if n < 0 || n > len(out)-got {
				return fmt.Errorf("DequeueBatch returned %d for a %d-slot buffer", n, len(out)-got)
			}
			if n == 0 {
				return fmt.Errorf("batch lost values: drained %d of %d", got, k)
			}
			got += n
		}
		if got != k {
			return fmt.Errorf("drained %d values, enqueued %d", got, k)
		}
		for i := 0; i < k; i++ {
			if out[i] != in[i] {
				return fmt.Errorf("batch not contiguous FIFO: out[%d] = %#x, want %#x", i, out[i], in[i])
			}
		}
		for i := k; i < len(out); i++ {
			if out[i] != sentinel {
				return fmt.Errorf("DequeueBatch wrote past its count at out[%d]", i)
			}
		}
		if n := queueapi.DequeueBatch(h, out[:1]); n != 0 {
			return fmt.Errorf("drained queue yielded %d extra value(s)", n)
		}
	}
	return nil
}

// RunSPSC verifies strict global FIFO order with one producer and one
// consumer, the strongest order property observable without full
// linearizability analysis: with a single producer, Run's
// per-producer order is the global order.
func RunSPSC(q queueapi.Queue, n int) error {
	return Run(q, Config{Producers: 1, Consumers: 1, PerProducer: n})
}

// RunDrain enqueues n values (spinning on full), then drains the queue
// and verifies count and set equality. Exercises repeated full/empty
// transitions sequentially.
func RunDrain(q queueapi.Queue, n int) error {
	h, err := q.Handle()
	if err != nil {
		return err
	}
	seen := make([]bool, n)
	pending := 0
	drained := 0
	for i := 0; i < n; i++ {
		for !h.Enqueue(Encode(0, i)) {
			// Full: drain one.
			v, ok := h.Dequeue()
			if !ok {
				return fmt.Errorf("queue both full and empty at %d", i)
			}
			if err := mark(seen, v); err != nil {
				return err
			}
			pending--
			drained++
		}
		pending++
	}
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		if err := mark(seen, v); err != nil {
			return err
		}
		pending--
		drained++
	}
	if pending != 0 || drained != n {
		return fmt.Errorf("drained %d of %d (pending %d)", drained, n, pending)
	}
	return nil
}

func mark(seen []bool, v uint64) error {
	_, seq := Decode(v)
	if seq >= len(seen) {
		return fmt.Errorf("corrupt value %#x", v)
	}
	if seen[seq] {
		return fmt.Errorf("value %d dequeued twice", seq)
	}
	seen[seq] = true
	return nil
}
