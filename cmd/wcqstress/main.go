// Command wcqstress is the one correctness CLI: each round runs
// checker.Run against a registry queue and, for the unbounded queues
// of queues.UnboundedQueues, the checker.Footprint leak check.
//
//	wcqstress -queue wCQ -producers 4 -consumers 4 -rounds 20
//	wcqstress -queue all -slowpath            # force wCQ's helped paths
//	wcqstress -queue Sharded -shards 8        # sharded composition
//	wcqstress -queue all -batch 32            # scalar and batch ops of 1..32 values
//	                                          # (native single-F&A reservation
//	                                          # on the ring-based queues)
//	wcqstress -queue UWCQ -capacity 64        # unbounded: tiny rings, heavy
//	                                          # turnover and pool recycling
//	wcqstress -blocking                       # blocking Chan facades: parked
//	                                          # Send/Recv + graceful close/drain
//	wcqstress -blocking -batch 16             # parked SendMany/RecvMany incl.
//	                                          # partial batches at close-drain
//
// "all" covers every real queue, including the unbounded LSCQ/UWCQ
// (where -capacity sets the per-ring size, not a bound); -blocking
// covers every Chan facade, including ChanUnbounded. Exit status 1
// means a round failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/checker"
	"repro/internal/clihelper"
	"repro/internal/queueapi"
	"repro/internal/queues"
)

// footprintCycles is the fill/drain cycle count of each round's leak
// check.
const footprintCycles = 16

func main() {
	var (
		queue     = flag.String("queue", "", "queue name or 'all' (default: wCQ, or 'all' with -blocking)")
		producers = flag.Int("producers", 4, "producer goroutines")
		consumers = flag.Int("consumers", 4, "consumer goroutines")
		per       = flag.Int("per", 20000, "values per producer per round")
		rounds    = flag.Int("rounds", 5, "checker rounds per queue")
	)
	shared := clihelper.Register(flag.CommandLine, 256)
	flag.Parse()

	if *queue == "" {
		if shared.Blocking {
			*queue = "all"
		} else {
			*queue = "wCQ"
		}
	}
	names := shared.QueueNames(*queue)
	cfg, err := shared.Config(*producers + *consumers + 2)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ccfg := checker.Config{
		Producers:   *producers,
		Consumers:   *consumers,
		PerProducer: *per,
		Capacity:    int(shared.Capacity),
		Batch:       shared.Batch,
		Blocking:    shared.Blocking,
	}
	failed := false
	for _, name := range names {
		for r := 0; r < *rounds; r++ {
			q, err := queues.New(name, cfg)
			if err != nil {
				fmt.Printf("%-12s SKIP (%v)\n", name, err)
				break
			}
			if shared.Blocking {
				// An unrunnable configuration is a SKIP, not a FAIL: the
				// blocking checker needs the close/drain surface.
				if _, ok := q.(queueapi.Closer); !ok {
					fmt.Printf("%-12s SKIP (not a blocking queue; use one of %v with -blocking)\n", name, queues.BlockingQueues())
					break
				}
			}
			start := time.Now()
			leak := slices.Contains(queues.UnboundedQueues(), name)
			if err = checker.Run(q, ccfg); err == nil && leak {
				// The leak check starts from a fresh queue: a blocking
				// run leaves its queue closed.
				if q, err = queues.New(name, cfg); err == nil {
					err = checker.Footprint(q, ccfg, footprintCycles)
				}
			}
			if err != nil {
				fmt.Printf("%-12s round %d FAIL: %v\n", name, r, err)
				failed = true
				break
			}
			fmt.Printf("%-12s round %d ok (%d values, %.2fs)", name, r, *producers**per, time.Since(start).Seconds())
			if leak {
				fmt.Printf(", %d-cycle leak check ok", footprintCycles)
			}
			fmt.Println()
		}
	}
	if failed {
		os.Exit(1)
	}
}
