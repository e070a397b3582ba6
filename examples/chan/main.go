// Chan: a worker pool with graceful shutdown on the blocking
// wfqueue.Chan facade.
//
// A dispatcher Sends jobs into a bounded Chan (parking when the
// workers fall behind — natural backpressure, no spinning), workers
// Recv jobs (parking when idle) and Send results into a second Chan,
// and shutdown is a Close cascade: closing the job channel drains it,
// each worker exits on ErrClosed, and the collector finishes once the
// result channel closes behind the last worker. A straggler using
// RecvCtx shows deadline-bounded waits on the same queue.
package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	wfqueue "repro"
)

type job struct {
	id    int
	input uint64
}

type result struct {
	id     int
	output uint64
}

const (
	workers = 4
	jobs    = 10_000
	buffer  = 256
)

func main() {
	jobq, err := wfqueue.NewChan[job](buffer, workers+2)
	if err != nil {
		panic(err)
	}
	resq, err := wfqueue.NewChan[result](buffer, workers+2)
	if err != nil {
		panic(err)
	}

	// Workers: Recv parks while idle, drains after Close, and reports
	// ErrClosed when the job queue is closed and empty.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		jh, err1 := jobq.Handle()
		rh, err2 := resq.Handle()
		if err1 != nil || err2 != nil {
			panic("handle registration failed")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, err := jh.Recv()
				if err != nil { // ErrClosed: shutdown
					return
				}
				if err := rh.Send(result{id: j.id, output: j.input * j.input}); err != nil {
					return
				}
			}
		}()
	}

	// Collector: counts results until the result channel closes.
	collected := make(chan int, 1)
	rh, err := resq.Handle()
	if err != nil {
		panic(err)
	}
	go func() {
		n := 0
		var sum uint64
		for {
			r, err := rh.Recv()
			if err != nil {
				fmt.Printf("collector: %d results (checksum %d)\n", n, sum)
				collected <- n
				return
			}
			n++
			sum += r.output
		}
	}()

	// Dispatch, then shut down gracefully: close jobs, wait for the
	// workers to drain them, close results behind the last worker.
	jh, err := jobq.Handle()
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for i := 0; i < jobs; i++ {
		if err := jh.Send(job{id: i, input: uint64(i)}); err != nil {
			panic(err)
		}
	}
	jobq.Close()
	wg.Wait()
	resq.Close()
	n := <-collected
	fmt.Printf("%d jobs through %d workers in %v (graceful close, nothing lost: %v)\n",
		jobs, workers, time.Since(start).Round(time.Millisecond), n == jobs)
	if n != jobs {
		panic(fmt.Sprintf("lost results: collected %d of %d", n, jobs))
	}

	// Deadline-bounded receive on a drained, closed queue family:
	// RecvCtx returns ErrClosed immediately rather than waiting out
	// the context — closed wins over "still empty".
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := rh.RecvCtx(ctx); errors.Is(err, wfqueue.ErrClosed) {
		fmt.Println("post-shutdown RecvCtx: ErrClosed (no deadline wait)")
	}
}
