// Package cli holds flag-parsing helpers shared by the sevsim command
// line tools.
package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"sevsim/internal/lang"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// Interruptible returns a context cancelled by SIGINT or SIGTERM, for
// graceful drain: a study or campaign given this context finishes its
// in-flight injections, flushes its journal, and returns
// context.Canceled instead of dying mid-write. A second signal while
// draining kills the process immediately (the Go runtime default,
// restored by stop).
func Interruptible() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ExitInterrupted is the conventional exit status for a run cut short
// by SIGINT (128 + SIGINT).
const ExitInterrupted = 130

// Parallelism resolves a -parallel flag value: <= 0 means one worker
// per available CPU (GOMAXPROCS).
func Parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Progress returns a stdout progress printer for core.Spec.Progress, or
// nil when quiet. It takes no lock: the study serializes its progress
// lines before they reach it.
func Progress(quiet bool) func(format string, args ...any) {
	if quiet {
		return nil
	}
	return func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
}

// March resolves a microarchitecture flag value ("a15" or "a72", or a
// full config name).
func March(name string) (machine.Config, error) {
	switch name {
	case "a15", "A15", "Cortex-A15-like":
		return machine.CortexA15Like(), nil
	case "a72", "A72", "Cortex-A72-like":
		return machine.CortexA72Like(), nil
	}
	return machine.Config{}, fmt.Errorf("unknown microarchitecture %q (use a15 or a72)", name)
}

// LoadSource returns MiniC source either from a named benchmark (at the
// given size, 0 = default) or from a file.
func LoadSource(bench, file string, size int) (name, src string, err error) {
	switch {
	case bench != "" && file != "":
		return "", "", fmt.Errorf("use either -bench or -src, not both")
	case bench != "":
		b, err := workloads.ByName(bench)
		if err != nil {
			return "", "", err
		}
		if size <= 0 {
			size = b.DefaultSize
		}
		return b.Name, b.Source(size), nil
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return "", "", err
		}
		return file, string(data), nil
	}
	return "", "", fmt.Errorf("one of -bench or -src is required")
}

// MustParse parses MiniC source, exiting with a diagnostic on failure.
func MustParse(src string) *lang.Program {
	prog, err := lang.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parse error:", err)
		os.Exit(1) //lint:exit process boundary for the CLI tools
	}
	return prog
}

// Fatal prints an error and exits.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1) //lint:exit process boundary for the CLI tools
}

// StartProfiles starts CPU and/or heap profiling for a CLI run. Either
// path may be empty to skip that profile. The returned stop function
// must run at exit (defer it): it stops the CPU profile and writes the
// heap profile after a final GC, so the snapshot shows live allocations
// rather than garbage.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			memFile, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mem profile:", err)
				return
			}
			defer memFile.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				fmt.Fprintln(os.Stderr, "mem profile:", err)
			}
		}
	}, nil
}
