package main

import (
	"time"

	wfqueue "repro"
	"repro/internal/metrics"
)

// rpcCapacity is the buffer of each Chan in chan-rpc. With one request
// in flight it never fills; it matches the Go channels of the
// reference rung.
const rpcCapacity = 1024

const (
	rpcChunk       = 64 // round trips between clock checks
	rpcSampleEvery = 8  // every 8th round trip is timed
)

// rpcStop asks the server to return. No encoded value equals it.
const rpcStop = ^uint64(0)

type sender interface{ Send(v uint64) error }
type receiver interface{ Recv() (uint64, error) }

// rpcRig is a client and a server joined by a request channel and a
// reply channel. The client sends one request and waits for its reply
// before sending the next; the server answers each request at once.
type rpcRig[S sender, R receiver] struct {
	clientSend S
	clientRecv R
	serverRecv R
	serverSend S
	// echo computes the server's reply; nil echoes the request.
	echo      func(uint64) uint64
	footprint func() uint64
	src       source
}

// run drives the client with ms[0] until it says stop; the server runs
// on its own goroutine until the client tells it to return.
func (r *rpcRig[S, R]) run(ms []*meter) outcome {
	r.src.reset()
	served := make(chan uint64, 1) // the server's failure count
	go func() { served <- r.serve() }()
	m := ms[0]
	start := time.Now()
	m.start = start
	var o outcome
	var trips uint64
	for done := false; !done; {
		for i := range rpcChunk {
			var t0 time.Time
			timed := i%rpcSampleEvery == 0
			if timed {
				t0 = time.Now()
			}
			v := r.src.peek()
			if err := r.clientSend.Send(v); err != nil {
				o.failed++
				done = true
				break
			}
			r.src.advance()
			got, err := r.clientRecv.Recv()
			if timed {
				m.sample(time.Since(t0))
			}
			if err != nil || got != v {
				o.failed++
			}
			if err != nil {
				done = true
				break
			}
			trips++
		}
		done = m.due(time.Now(), trips) || done
	}
	if err := r.clientSend.Send(rpcStop); err != nil {
		o.failed++
	}
	o.failed += <-served
	o.elapsed = time.Since(start)
	// Every round trip carries two values: the request and the reply.
	o.attempted = 2 * r.src.n
	o.transfers = 2 * trips
	o.meters, o.scale = ms[:1], 2
	if r.footprint != nil {
		o.peakFP = r.footprint()
		o.retainedFP = o.peakFP
	}
	return o
}

// serve answers requests until told to stop, returning its failures.
func (r *rpcRig[S, R]) serve() (fails uint64) {
	for {
		v, err := r.serverRecv.Recv()
		if err != nil {
			return fails + 1
		}
		if v == rpcStop {
			return fails
		}
		if r.echo != nil {
			v = r.echo(v)
		}
		if err := r.serverSend.Send(v); err != nil {
			return fails + 1
		}
	}
}

// chanRPC builds chan-rpc on two default Chans. With sink set both
// record into it; with hists set the calls are timed.
func chanRPC(seed uint64, sink *metrics.Sink, hists *rpcHists) (rig, error) {
	var opts []wfqueue.Option
	if sink != nil {
		opts = append(opts, wfqueue.WithMetrics(sink))
	}
	req, err := wfqueue.NewChan[uint64](rpcCapacity, 2, opts...)
	if err != nil {
		return nil, err
	}
	rep, err := wfqueue.NewChan[uint64](rpcCapacity, 2, opts...)
	if err != nil {
		return nil, err
	}
	var hs [4]*wfqueue.ChanHandle[uint64]
	for i, c := range []*wfqueue.Chan[uint64]{req, rep, req, rep} {
		if hs[i], err = c.Handle(); err != nil {
			return nil, err
		}
	}
	footprint := func() uint64 { return req.Footprint() + rep.Footprint() }
	src := newSource(0, seqBase(seed, 0))
	if hists != nil {
		return &rpcRig[sender, receiver]{
			clientSend: hists.send(0, hs[0]), clientRecv: hists.recv(0, hs[1]),
			serverRecv: hists.recv(1, hs[2]), serverSend: hists.send(1, hs[3]),
			footprint: footprint, src: src,
		}, nil
	}
	return &rpcRig[*wfqueue.ChanHandle[uint64], *wfqueue.ChanHandle[uint64]]{
		clientSend: hs[0], clientRecv: hs[1], serverRecv: hs[2], serverSend: hs[3],
		footprint: footprint, src: src,
	}, nil
}

// goChanRPC is chan-rpc's shape on two buffered Go channels: the host
// reference.
func goChanRPC(seed uint64) (rig, error) {
	req, rep := make(chan uint64, rpcCapacity), make(chan uint64, rpcCapacity)
	return &rpcRig[goSend, goRecv]{
		clientSend: req, clientRecv: rep, serverRecv: req, serverSend: rep,
		src: newSource(0, seqBase(seed, 0)),
	}, nil
}

type goSend chan uint64

func (c goSend) Send(v uint64) error { c <- v; return nil }

type goRecv chan uint64

func (c goRecv) Recv() (uint64, error) { return <-c, nil }

// rpcHists are the call histograms of a traced chan-rpc, one set per
// goroutine (0 = client, 1 = server).
type rpcHists struct{ sends, recvs [2]*metrics.Histogram }

func newRPCHists() *rpcHists {
	var h rpcHists
	for i := range 2 {
		h.sends[i], h.recvs[i] = metrics.NewHistogram(), metrics.NewHistogram()
	}
	return &h
}

func (h *rpcHists) send(i int, s sender) sender {
	return &timedSend{s: s, h: h.sends[i]}
}

func (h *rpcHists) recv(i int, r receiver) receiver {
	return &timedRecv{r: r, h: h.recvs[i]}
}

func (h *rpcHists) snapshots() (send, recv metrics.HistogramSnapshot) {
	for i := range 2 {
		send.Merge(h.sends[i].Snapshot())
		recv.Merge(h.recvs[i].Snapshot())
	}
	return send, recv
}

// timedSend and timedRecv time every traceEvery-th call.
type timedSend struct {
	s sender
	n uint32
	h *metrics.Histogram
}

func (t *timedSend) Send(v uint64) error {
	t.n++
	if t.n%traceEvery != 0 {
		return t.s.Send(v)
	}
	t0 := time.Now()
	err := t.s.Send(v)
	t.h.RecordSince(t0)
	return err
}

type timedRecv struct {
	r receiver
	n uint32
	h *metrics.Histogram
}

func (t *timedRecv) Recv() (uint64, error) {
	t.n++
	if t.n%traceEvery != 0 {
		return t.r.Recv()
	}
	t0 := time.Now()
	v, err := t.r.Recv()
	t.h.RecordSince(t0)
	return v, err
}
