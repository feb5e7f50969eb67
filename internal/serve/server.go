package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// maxSpecBytes bounds a submission body; anything larger is a client
// error, not a memory commitment.
const maxSpecBytes = 1 << 20

// heartbeatInterval paces keep-alive lines on an idle stream so proxies
// and clients can tell "no records yet" from "connection dead". A var so
// the tests can shorten it.
var heartbeatInterval = 2 * time.Second

// streamWriteTimeout is the per-chunk write deadline on the stream path:
// a client that stops reading is disconnected instead of parking a
// handler goroutine forever. A var so the tests can shorten it.
var streamWriteTimeout = 10 * time.Second

// Server is the HTTP facade over a Supervisor. Routes:
//
//	POST   /jobs               submit a JobSpec → {id, created, state}
//	GET    /jobs/{id}          status snapshot
//	GET    /jobs/{id}/result   result JSON (409 until done)
//	GET    /jobs/{id}/stream   chunked JSONL telemetry (+heartbeats), ?from=N resumes at a byte offset
//	DELETE /jobs/{id}          cancel
//	POST   /jobs/{id}/preempt  park a running job now (chaos/admin)
//	GET    /stats              operational counters
//	GET    /healthz            liveness (503 while draining)
type Server struct {
	sup *Supervisor
	mux *http.ServeMux
}

// NewServer wires the routes.
func NewServer(sup *Supervisor) *Server {
	s := &Server{sup: sup, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /jobs/{id}/preempt", s.handlePreempt)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore errsink the response write error has no one left to tell
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID string `json:"id"`
	// Created is false on a dedup hit: an identical job already exists
	// (possibly already finished) and this ID aliases it.
	Created bool     `json:"created"`
	State   JobState `json:"state"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: decoding job spec: %w", err))
		return
	}
	j, created, err := s.sup.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Load shedding: tell the client when to come back rather than
		// queueing unboundedly. The hint is the mean drain time of one
		// queue slot at current throughput — a crude but honest guess.
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{ID: j.ID, Created: created, State: j.State()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	j, err := s.sup.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if res, ok := j.Result(); ok {
		writeJSON(w, http.StatusOK, res)
		return
	}
	st := j.Snapshot()
	switch st.State {
	case StateFailed:
		writeJSON(w, http.StatusGone, st)
	case StateCanceled:
		writeJSON(w, http.StatusGone, st)
	default:
		// Not done yet: 409 with the status so pollers get progress for
		// free.
		writeJSON(w, http.StatusConflict, st)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.sup.Cancel(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
}

func (s *Server) handlePreempt(w http.ResponseWriter, r *http.Request) {
	if err := s.sup.Preempt(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "preempting"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sup.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.sup.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// heartbeatLine is emitted on idle streams. It deliberately looks like a
// telemetry record so line-oriented consumers can parse-and-drop it; it
// is written only to the live HTTP stream, never into the job's stored
// stream, so stored streams stay byte-deterministic.
var heartbeatLine = []byte(`{"record":"heartbeat"}` + "\n")

// handleStream serves the job's telemetry as chunked JSONL from a byte
// offset, following the stream live until the job settles. Slow or dead
// clients hit the per-chunk write deadline and are disconnected; the
// writer side never blocks on them.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	off := 0
	if f := r.URL.Query().Get("from"); f != "" {
		if _, err := fmt.Sscanf(f, "%d", &off); err != nil || off < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad from offset %q", f))
			return
		}
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	write := func(p []byte) bool {
		//lint:ignore errsink a failed deadline set degrades to a blocking write; the write error below still disconnects
		rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if _, err := w.Write(p); err != nil {
			return false
		}
		//lint:ignore errsink flush failure surfaces on the next write
		rc.Flush()
		return true
	}

	stream := j.Stream()
	heartbeat := time.NewTimer(heartbeatInterval)
	defer heartbeat.Stop()
	for {
		data, done, wake := stream.ReadFrom(off)
		if len(data) > 0 {
			if !write(data) {
				return
			}
			off += len(data)
			continue
		}
		if done {
			return
		}
		if !heartbeat.Stop() {
			select {
			case <-heartbeat.C:
			default:
			}
		}
		heartbeat.Reset(heartbeatInterval)
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-heartbeat.C:
			if !write(heartbeatLine) {
				return
			}
		}
	}
}
