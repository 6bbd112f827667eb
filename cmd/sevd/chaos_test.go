package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sevsim/internal/dispatch"
)

// chaosWire is the chaos campaign: one machine, 12 cells, enough
// faults that the study takes tens of seconds serially — long enough
// for two worker kills and a coordinator kill to land mid-flight.
func chaosWire() dispatch.StudySpec {
	return dispatch.StudySpec{
		Machines: []string{"Cortex-A15-like"},
		Benches:  []string{"qsort", "gsm"},
		Sizes:    []int{64, 2},
		Levels:   []string{"O0", "O2"},
		Targets:  []string{"RF", "ROB.pc", "L1D.data"},
		Faults:   1200,
		Seed:     7,
	}
}

// TestChaosKillWorkersAndCoordinator is the end-to-end fault-tolerance
// acceptance, with real processes and real SIGKILL:
//
//   - a study runs under sevd with 3 sevworker processes
//   - one worker is SIGKILLed twice mid-campaign and restarted on its
//     workdir (exercising lease expiry, reassignment, local-journal
//     replay, and double-completion dedup)
//   - the coordinator is SIGKILLed once mid-campaign and restarted on
//     its state directory and port (exercising journal replay and
//     orphan-lease recovery)
//
// and the merged study.json must still be byte-identical to a clean
// single-process run: no cell lost, none double-counted.
func TestChaosKillWorkersAndCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test runs real processes for ~1 minute")
	}
	sevd, sevworker := buildBinaries(t)
	wire := chaosWire()
	want := localStudy(t, wire)

	state := t.TempDir()
	coord := startSevd(t, sevd, "127.0.0.1:0", state)
	base := "http://" + coord.addr

	var sub dispatch.SubmitResponse
	submitStudy(t, base, wire, &sub)
	t.Logf("submitted %s: %d cells", sub.ID, sub.Cells)

	workdirs := make([]string, 3)
	workers := make([]*proc, 3)
	for i := range workers {
		workdirs[i] = t.TempDir()
		workers[i] = startWorker(t, sevworker, base, fmt.Sprintf("w%d", i), workdirs[i])
	}

	status := func() (dispatch.StatusEvent, error) {
		return studyStatus(base, sub.ID)
	}
	waitDone := func(n int, what string) {
		deadline := time.Now().Add(3 * time.Minute)
		for time.Now().Before(deadline) {
			if ev, err := status(); err == nil && ev.Done >= n {
				t.Logf("%s at done=%d/%d", what, ev.Done, ev.Total)
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for done >= %d before %s", n, what)
	}

	// First worker kill, early in the campaign.
	waitDone(1, "first worker kill")
	workers[0].kill(t)
	workers[0] = startWorker(t, sevworker, base, "w0", workdirs[0])

	// Coordinator kill and restart on the same state dir and port.
	waitDone(4, "coordinator kill")
	coord.kill(t)
	coord = startSevd(t, sevd, coord.addr, state)

	// Second worker kill, late in the campaign.
	waitDone(8, "second worker kill")
	workers[0].kill(t)
	workers[0] = startWorker(t, sevworker, base, "w0", workdirs[0])

	// The study must finish and match the single-process bytes.
	got := waitResult(t, base, sub.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos-merged study differs from single-process run (%d vs %d bytes)", len(got), len(want))
	}
	ev, err := status()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Quarantined != 0 {
		t.Fatalf("%d cells quarantined; the merge cannot be clean: %+v", ev.Quarantined, ev)
	}
	t.Logf("chaos run complete: %d cells, byte-identical", ev.Done)
}

// localStudy computes the reference bytes in-process.
func localStudy(t *testing.T, wire dispatch.StudySpec) []byte {
	t.Helper()
	spec, err := wire.Spec()
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := st.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func buildBinaries(t *testing.T) (sevd, sevworker string) {
	t.Helper()
	dir := t.TempDir()
	sevd = filepath.Join(dir, "sevd")
	sevworker = filepath.Join(dir, "sevworker")
	for bin, pkg := range map[string]string{sevd: "sevsim/cmd/sevd", sevworker: "sevsim/cmd/sevworker"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("build %s: %v", pkg, err)
		}
	}
	return sevd, sevworker
}

// proc is a child process whose stdout is logged and scanned.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // sevd only: the resolved listen address
	done chan struct{}
}

func (p *proc) kill(t *testing.T) {
	t.Helper()
	t.Logf("SIGKILL %s (pid %d)", p.name, p.cmd.Process.Pid)
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill %s: %v", p.name, err)
	}
	<-p.done
}

func start(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout
	addrCh := make(chan string, 1)
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var logMu sync.Mutex
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			t.Logf("[%s] %s", name, line)
			logMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "sevd: listening on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
		p.cmd.Wait()
	}()
	t.Cleanup(func() {
		p.cmd.Process.Signal(syscall.SIGKILL)
		<-p.done
	})
	if strings.HasPrefix(name, "sevd") {
		select {
		case p.addr = <-addrCh:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not print its listen address", name)
		case <-p.done:
			t.Fatalf("%s exited before listening", name)
		}
	}
	return p
}

func startSevd(t *testing.T, bin, listen, state string) *proc {
	// Short TTL and generous budgets: dead workers' cells must come
	// back quickly, and the kills must not quarantine anything (a
	// quarantine would change the study bytes by design).
	return start(t, "sevd", bin,
		"-listen", listen, "-state", state,
		"-lease-ttl", "5s",
		"-max-attempts", "20", "-worker-budget", "50")
}

func startWorker(t *testing.T, bin, base, name, workdir string) *proc {
	return start(t, "sevworker/"+name, bin,
		"-coordinator", base, "-workdir", workdir, "-name", name, "-parallel", "2")
}

func submitStudy(t *testing.T, base string, wire dispatch.StudySpec, sub *dispatch.SubmitResponse) {
	t.Helper()
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(base+"/studies", "application/json", bytes.NewReader(body))
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(resp.Body)
				t.Fatalf("submit: %s: %s", resp.Status, msg)
			}
			if err := json.NewDecoder(resp.Body).Decode(sub); err != nil {
				t.Fatal(err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// studyStatus reads the first line of the progress stream — the
// snapshot — and closes it.
func studyStatus(base, id string) (dispatch.StatusEvent, error) {
	var ev dispatch.StatusEvent
	resp, err := http.Get(base + "/studies/" + id)
	if err != nil {
		return ev, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ev, fmt.Errorf("status: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		return ev, fmt.Errorf("empty progress stream")
	}
	return ev, json.Unmarshal(sc.Bytes(), &ev)
}

func waitResult(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/studies/" + id + "/result")
		if err == nil {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && rerr == nil {
				return data
			}
		}
		time.Sleep(250 * time.Millisecond)
	}
	t.Fatal("study never completed")
	return nil
}
