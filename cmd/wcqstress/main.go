// Command wcqstress is the one stress tool, short or long. Each round
// is a verified checker round (exactly-once, per-producer FIFO,
// livelock watchdog) on a registry queue, plus the checker.Footprint
// leak check for queues.UnboundedQueues. Without -blocking one queue
// serves every round, so its ring counters age across the run; a
// blocking round closes its queue, so the next round builds a new one.
//
//	wcqstress -queue all -batch 32 -slowpath  # every real queue, ops of 1..32 values, helped paths
//	wcqstress -blocking -batch 16             # every Chan facade: parked ops + close/drain
//	wcqstress -queue UWCQ -capacity 64 -rounds 0 -serve 127.0.0.1:8377 -snapshots snap.jsonl
//
// -rounds 0 runs one queue until SIGINT or SIGTERM, which lets the
// current round finish. -serve turns the metrics sink on and serves
// /metrics (Prometheus text) and /debug/vars (expvar JSON, key
// "wcqstress"); -snapshots appends one wcqbench/v1 record (figure
// "live") per round. Exit status: 0 when every round passed or a
// signal ended the run, 1 on the first failed round or snapshot
// append, 2 on a usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/checker"
	"repro/internal/clihelper"
	"repro/internal/metrics"
	"repro/internal/queueapi"
	"repro/internal/queues"
)

// footprintCycles is the fill/drain cycle count of each round's leak
// check.
const footprintCycles = 16

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole tool over explicit arguments and streams; once ctx
// ends no further round starts. It returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wcqstress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queue     = fs.String("queue", "", "queue name or 'all' (default: wCQ, or 'all' with -blocking)")
		producers = fs.Int("producers", 4, "producer goroutines")
		consumers = fs.Int("consumers", 4, "consumer goroutines")
		per       = fs.Int("per", 20000, "values per producer per round")
		rounds    = fs.Int("rounds", 5, "checker rounds per queue (0 = until SIGINT/SIGTERM)")
		serve     = fs.String("serve", "", "serve /metrics and /debug/vars on this address (turns the metrics sink on)")
		snapshots = fs.String("snapshots", "", "append one wcqbench/v1 JSON line per round to this file")
	)
	shared := clihelper.Register(fs, 256)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *queue == "" {
		*queue = "wCQ"
		if shared.Blocking {
			*queue = "all"
		}
	}
	ccfg := checker.Config{Producers: *producers, Consumers: *consumers, PerProducer: *per,
		Capacity: int(shared.Capacity), Batch: shared.Batch, Blocking: shared.Blocking}
	names := shared.QueueNames(*queue)
	var cfg queues.Config
	err := ccfg.Validate()
	switch {
	case err != nil:
	case *rounds < 0:
		err = fmt.Errorf("-rounds %d: want 0 (until a signal) or more", *rounds)
	case *rounds == 0 && len(names) > 1:
		err = errors.New("-rounds 0 never leaves the first queue: name one -queue")
	default:
		cfg, err = shared.Config(*producers + *consumers + 2)
	}
	mon := newMonitor(*producers + *consumers)
	if err == nil && *serve != "" {
		// The served gauges exist to watch the internals: the sink is
		// on whatever -metrics says.
		if cfg.Metrics == nil {
			cfg.Metrics = metrics.New()
		}
		var shutdown func()
		if shutdown, err = mon.serve(*serve, stdout); err == nil {
			defer shutdown()
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "wcqstress:", err)
		return 2
	}

	// stress runs the rounds on queue name and reports whether every
	// one passed. An unbuildable configuration prints SKIP and passes.
	stress := func(name string) bool {
		leak := slices.Contains(queues.UnboundedQueues(), name)
		var sess *checker.Session
		for r := 0; (*rounds == 0 || r < *rounds) && ctx.Err() == nil; r++ {
			if sess == nil {
				q, err := queues.New(name, cfg)
				if _, ok := q.(queueapi.Closer); err == nil && ccfg.Blocking && !ok {
					err = fmt.Errorf("not a blocking queue; use one of %v with -blocking", queues.BlockingQueues())
				}
				if err != nil {
					fmt.Fprintf(stdout, "%-12s SKIP (%v)\n", name, err)
					return true
				}
				if sess, err = checker.Open(q, ccfg); err != nil {
					fmt.Fprintf(stdout, "%-12s round %d FAIL: %v\n", name, r, err)
					return false
				}
				mon.watch(q)
			}
			start := time.Now()
			err := sess.Round()
			dt := time.Since(start)
			if ccfg.Blocking {
				sess = nil // the round closed its queue
			}
			if err == nil && leak {
				// On a fresh, unsinked queue: the session holds the
				// stressed queue's handles, and the served gauges
				// count the stressed queue only.
				fcfg := cfg
				fcfg.Metrics = nil
				var q queueapi.Queue
				if q, err = queues.New(name, fcfg); err == nil {
					err = checker.Footprint(q, ccfg, footprintCycles)
				}
			}
			if err != nil {
				fmt.Fprintf(stdout, "%-12s round %d FAIL: %v\n", name, r, err)
				return false
			}
			values := *producers * *per
			fmt.Fprintf(stdout, "%-12s round %d ok (%d values, %.2fs)", name, r, values, dt.Seconds())
			if leak {
				fmt.Fprintf(stdout, ", %d-cycle leak check ok", footprintCycles)
			}
			fmt.Fprintln(stdout)
			mon.roundDone(values)
			if *snapshots != "" {
				if err := benchfmt.Append(*snapshots, mon.snapshotFile(values, dt)); err != nil {
					fmt.Fprintln(stderr, "wcqstress: snapshot append:", err)
					return false
				}
			}
		}
		return true
	}
	for _, name := range names {
		if ctx.Err() == nil && !stress(name) {
			return 1
		}
	}
	return 0
}
