// Command sevd is the distributed-campaign coordinator: it accepts
// study submissions over HTTP, decomposes them into cell-granular work
// items, leases them a unit at a time to sevworker processes with
// deadlines and heartbeats, reassigns the cells of dead or stalled workers, and
// merges the reported outcomes into a study.json byte-identical to a
// single-process run of the same spec.
//
// Each study is journaled under -state in <study ID>.journal, the
// format a local `sevrepro -journal` run writes. The accepted results
// of a worker's report are written there, with one fsync for the
// report, before it is acknowledged, so sevd itself can be killed and
// restarted at any point without losing an acknowledged cell: on
// restart every study journal replays, outstanding leases expire, and
// their cells are re-leased. A -state directory an older sevd wrote
// (one "coordinator" journal for every study) is refused: remove it
// and resubmit.
//
// Usage:
//
//	sevd -state /var/lib/sevd            # listen on the default port
//	sevd -listen 127.0.0.1:0 -state d    # pick a free port (printed)
//
// Submit work and read results with plain HTTP:
//
//	curl -d '{"Machines":["Cortex-A15-like"],"Benches":["qsort"],"Levels":["O0","O2"],"Faults":200,"Seed":7}' \
//	    http://localhost:8750/studies
//	curl http://localhost:8750/studies/<id>          # progress stream
//	curl http://localhost:8750/studies/<id>/result   # final study.json
//
// SIGTERM or SIGINT drains gracefully: no new leases are granted,
// in-flight leases get -drain-timeout to report, then the server shuts
// down. A second signal kills the process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"sevsim/internal/cli"
	"sevsim/internal/dispatch"
	"sevsim/internal/journal"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8750", "address to listen on (use :0 for a free port)")
	state := flag.String("state", "", "durable state directory (required); the study journals inside it make sevd kill-and-resume safe")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "lease deadline without a heartbeat before cells are reassigned")
	maxAttempts := flag.Int("max-attempts", 3, "lease grants per cell before it is quarantined into Study.Failed")
	workerBudget := flag.Int("worker-budget", 3, "per-worker error budget before it stops receiving leases")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long a SIGTERM drain waits for in-flight leases")
	quiet := flag.Bool("q", false, "suppress operational log output")
	flag.Parse()

	if *state == "" {
		cli.Fatal(fmt.Errorf("-state is required"))
	}
	if err := journal.MkdirAllSync(*state, 0o755); err != nil {
		cli.Fatal(err)
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Printf("sevd: "+format+"\n", args...)
		}
	}
	coord, err := dispatch.OpenCoordinator(dispatch.Options{
		Dir:          *state,
		LeaseTTL:     *leaseTTL,
		MaxAttempts:  *maxAttempts,
		WorkerBudget: *workerBudget,
		Logf:         logf,
	})
	if err != nil {
		cli.Fatal(err)
	}

	srv := dispatch.NewServer(coord, *listen)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		cli.Fatal(err)
	}
	// The resolved address line is machine-read by tests and scripts
	// that start sevd on ":0"; keep its shape stable.
	fmt.Printf("sevd: listening on %s\n", ln.Addr())

	ctx, stop := cli.Interruptible()
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Sweep expired leases on a fraction of the TTL so a dead worker's
	// cells come back well before a live worker runs out of queue.
	go func() {
		tick := time.NewTicker(*leaseTTL / 4)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				coord.Sweep()
			}
		}
	}()

	select {
	case err := <-serveErr:
		coord.Close()
		cli.Fatal(err)
	case <-ctx.Done():
	}

	logf("draining (up to %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := coord.Drain(drainCtx); err != nil {
		logf("drain: %v", err)
	}
	cancel()

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && err != http.ErrServerClosed {
		logf("shutdown: %v", err)
	}
	if err := coord.Close(); err != nil {
		cli.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sevd: journal: %s\n", coord.JournalStats())
	logf("bye")
}
