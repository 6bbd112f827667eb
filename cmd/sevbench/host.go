package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// now is the benchmark's one wall-clock read. Every duration sevbench
// reports is a difference of two now() values; none of them reaches a
// study.json.
func now() time.Time {
	return time.Now() //lint:clock the benchmark measures wall-clock; timings are reported beside study.json, never in it
}

// seconds renders a duration as float seconds with all its digits.
func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }

// cpuSeconds returns the process's user+sys CPU time so far. A delta
// around a repetition is the cost of that repetition on a shared or
// billed machine, GC and HTTP goroutines included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident set, so VmHWM afterwards is the peak of what
// follows. Where /proc/self/clear_refs is not writable the mark keeps
// its process-wide meaning, which only makes peak_rss_mb the maximum
// over set-up and repetitions.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// parallelism is the load shape of every workload: min(nproc, 4)
// worker threads in one process.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// hostInfo is the fingerprint recorded with every output, so two result
// files can be told apart by where and when they were measured.
type hostInfo struct {
	CPUModel   string
	NumCPU     int
	P          int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	LoadStart  string
	LoadEnd    string
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		P:          parallelism(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		LoadStart:  loadAvg(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}
