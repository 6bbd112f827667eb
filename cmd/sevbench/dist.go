package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"

	"sevsim/internal/core"
	"sevsim/internal/dispatch"
)

// postJSON is the benchmark's client side of the coordinator API.
func postJSON(ctx context.Context, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	r, err := http.DefaultClient.Do(hr)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode == http.StatusNoContent {
		return nil
	}
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 1024)) // best-effort detail for the error below
		return fmt.Errorf("POST %s: %s: %s", url, r.Status, bytes.TrimSpace(msg))
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

func getBody(ctx context.Context, url string) (*http.Response, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	r, err := http.DefaultClient.Do(hr)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		r.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", url, r.Status)
	}
	return r, nil
}

// service is an in-process coordinator on a loopback HTTP server, with
// a fresh state directory.
type service struct {
	coord *dispatch.Coordinator
	ts    *httptest.Server
}

func (e *env) startService() (*service, error) {
	dir, err := e.dir("coordinator")
	if err != nil {
		return nil, err
	}
	coord, err := dispatch.OpenCoordinator(dispatch.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	return &service{coord: coord, ts: httptest.NewServer(dispatch.NewServer(coord, "").Handler)}, nil
}

func (s *service) stop() error {
	s.ts.Close()
	return s.coord.Close()
}

// runDist executes the spec through the second orchestration path: a
// fresh in-process coordinator and e.p workers with Parallelism 1 and
// fresh workdirs, all sharing the cache directory the set-up filled.
// The timed region is what a client sees: POST /studies, the progress
// stream until it ends, GET the result.
func (e *env) runDist(spec core.Spec, cacheDir string) (studyOut, error) {
	svc, err := e.startService()
	if err != nil {
		return studyOut{}, err
	}
	workers := make([]*dispatch.Worker, e.p)
	for i := range workers {
		wd, err := e.dir(fmt.Sprintf("worker%d", i))
		if err != nil {
			return studyOut{}, err
		}
		workers[i], err = dispatch.NewWorker(dispatch.WorkerOptions{
			Coordinator: svc.ts.URL,
			Name:        fmt.Sprintf("w%d", i),
			Workdir:     wd,
			Parallelism: 1,
			CacheDir:    cacheDir,
		})
		if err != nil {
			return studyOut{}, err
		}
	}
	wctx, stopWorkers := context.WithCancel(e.ctx)
	var wg sync.WaitGroup
	shutdown := func() error {
		stopWorkers()
		wg.Wait()
		return svc.stop()
	}

	t0, c0 := now(), cpuSeconds()
	var sub dispatch.SubmitResponse
	if err := postJSON(e.ctx, svc.ts.URL+"/studies", dispatch.WireSpec(spec), &sub); err != nil {
		shutdown()
		return studyOut{}, err
	}
	// Workers start polling only now, so the first poll of each is
	// granted a lease instead of starting an idle backoff.
	for _, w := range workers {
		wg.Add(1)
		go func(w *dispatch.Worker) {
			defer wg.Done()
			w.Run(wctx) // returns nil on cancellation; lease errors are retried inside
		}(w)
	}
	data, err := awaitResult(e.ctx, svc.ts.URL, sub.ID)
	wall, cpu := now().Sub(t0), cpuSeconds()-c0
	if serr := shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return studyOut{}, err
	}

	// Decode the merged bytes through the public loader so the cell
	// checks see exactly what a client would.
	st, err := e.loadBytes(data)
	if err != nil {
		return studyOut{}, err
	}
	return studyOut{st: st, bytes: data, wall: wall, cpu: cpu}, nil
}

// awaitResult follows the study's progress stream to its end and
// fetches the merged study.json.
func awaitResult(ctx context.Context, base, id string) ([]byte, error) {
	stream, err := getBody(ctx, base+"/studies/"+id)
	if err != nil {
		return nil, err
	}
	var last dispatch.StatusEvent
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			stream.Body.Close()
			return nil, fmt.Errorf("progress stream: %w", err)
		}
	}
	stream.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("progress stream: %w", err)
	}
	if last.State != "complete" {
		return nil, fmt.Errorf("study %s ended in state %q (%d/%d cells, %d quarantined)", id, last.State, last.Done, last.Total, last.Quarantined)
	}
	res, err := getBody(ctx, base+"/studies/"+id+"/result")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	return io.ReadAll(res.Body)
}
