// Command sevworker executes campaign cells on behalf of a sevd
// coordinator: it polls for leases, computes each leased unit with the
// same journaled engine the local tools use, and reports the outcomes.
//
// Each lease is journaled in a file of its own under -workdir, one
// fsync for the unit, and the file is removed once the coordinator has
// acknowledged the lease's report. That makes the worker itself
// crash-safe: a worker SIGKILLed mid-lease, restarted on the same
// workdir and granted the same cells again replays the finished ones
// instead of recomputing them, then reports them — whether or not the
// coordinator still remembers the old lease, since completions are
// merged by cell identity. Nothing a killed worker had finished is
// lost; a power loss costs at most the unit it was computing.
//
// Usage:
//
//	sevworker -coordinator http://localhost:8750 -workdir /tmp/w1
//	sevworker -coordinator http://host:8750 -workdir d -name rack3 -parallel 8
//
// SIGTERM or SIGINT stops the worker after at most one in-flight
// report; abandoned leases expire at the coordinator and reassign.
package main

import (
	"flag"
	"fmt"
	"os"

	"sevsim/internal/cli"
	"sevsim/internal/dispatch"
	"sevsim/internal/journal"
)

func main() {
	coordinator := flag.String("coordinator", "http://127.0.0.1:8750", "coordinator base URL")
	workdir := flag.String("workdir", "", "directory for the journals of leases in flight (required), one small file per lease, removed when its report is acknowledged; reuse it across restarts to resume an interrupted lease")
	name := flag.String("name", "", "worker name for leases and error budgets (default host.pid)")
	parallel := flag.Int("parallel", 0, "worker pool size for each leased unit: compile, golden run and injections (0 = GOMAXPROCS); results are identical at any setting")
	quiet := flag.Bool("q", false, "suppress log output")
	flag.Parse()

	if *workdir == "" {
		cli.Fatal(fmt.Errorf("-workdir is required"))
	}
	if err := journal.MkdirAllSync(*workdir, 0o755); err != nil {
		cli.Fatal(err)
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s.%d", host, os.Getpid())
	}

	w, err := dispatch.NewWorker(dispatch.WorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		Workdir:     *workdir,
		Parallelism: *parallel,
		Logf: func(format string, args ...any) {
			if !*quiet {
				fmt.Printf("sevworker %s: "+format+"\n", append([]any{*name}, args...)...)
			}
		},
	})
	if err != nil {
		cli.Fatal(err)
	}

	ctx, stop := cli.Interruptible()
	defer stop()
	if err := w.Run(ctx); err != nil {
		cli.Fatal(err)
	}
}
