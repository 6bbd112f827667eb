package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// NewServer wraps a Coordinator in its HTTP/JSON API. The returned
// server has ReadHeaderTimeout set (a coordinator must not be
// wedgeable by a stalled client handshake) and is meant to be started
// with ListenAndServe by the caller and stopped with Shutdown after
// Coordinator.Drain.
//
// Study API:
//
//	POST /studies            StudySpec -> SubmitResponse
//	GET  /studies/{id}       streaming progress, one StatusEvent JSON line
//	                         per change; the stream ends when the study
//	                         completes
//	GET  /studies/{id}/result the completed study.json bytes (409 while
//	                         the study is still running)
//
// Worker API:
//
//	POST /v1/lease           LeaseRequest -> LeaseGrant (204 when no work)
//	POST /v1/heartbeat       HeartbeatRequest -> HeartbeatResponse
//	POST /v1/complete        CompleteRequest -> CompleteResponse
//	POST /v1/fail            FailRequest -> 204
//	GET  /healthz            200 ok
//
// A report naming an unknown study is answered 404 and one whose
// outcome the study's Assembler rejects 400: no retry can land either.
// A journal write or fsync that fails is a 500, which the worker retries.
func NewServer(c *Coordinator, addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /studies", func(w http.ResponseWriter, r *http.Request) {
		var spec StudySpec
		if !decode(w, r, &spec) {
			return
		}
		resp, err := c.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		encode(w, resp)
	})
	mux.HandleFunc("GET /studies/{id}", func(w http.ResponseWriter, r *http.Request) {
		serveProgress(c, w, r)
	})
	mux.HandleFunc("GET /studies/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		data, ok := c.Result(id)
		if !ok {
			if _, known := c.Status(id); !known {
				httpError(w, http.StatusNotFound, fmt.Errorf("unknown study %s", id))
				return
			}
			httpError(w, http.StatusConflict, fmt.Errorf("study %s is still running", id))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decode(w, r, &req) {
			return
		}
		grant, err := c.Lease(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if grant == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		encode(w, grant)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decode(w, r, &req) {
			return
		}
		encode(w, c.Heartbeat(req))
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := c.Complete(req)
		if err != nil {
			httpError(w, statusOf(err), err)
			return
		}
		encode(w, resp)
	})
	mux.HandleFunc("POST /v1/fail", func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.Fail(req); err != nil {
			httpError(w, statusOf(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
}

// serveProgress streams a study's status as JSON lines: a snapshot
// first, then one line per change, ending when the study completes or
// the client goes away.
func serveProgress(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ev, ok := c.Status(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown study %s", id))
		return
	}
	events, cancel, err := c.Subscribe(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	enc.Encode(ev)
	flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			if !open {
				// Terminal snapshot: the subscriber channel closed on
				// completion, possibly dropping intermediate events.
				if final, ok := c.Status(id); ok {
					enc.Encode(final)
					flush()
				}
				return
			}
			enc.Encode(ev)
			flush()
		}
	}
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func encode(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// statusOf is the HTTP status of a failed request: a refusal's own,
// anything else (a journal write or fsync) a 500 the worker retries.
func statusOf(err error) int {
	var r refusal
	if errors.As(err, &r) {
		return r.status
	}
	return http.StatusInternalServerError
}

func httpError(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}
