// Package server is the HTTP face of the exploration service: a stdlib
// net/http API over a jobs.Queue. It translates requests into job specs,
// queue errors into status codes (a full queue is 503 with a Retry-After,
// not a failure), and finished jobs into artifact downloads. The daemon
// wrapping it is cmd/dvsd; the client is cmd/dvsctl.
//
// API (all request/response bodies are JSON):
//
//	POST   /v1/runs                          submit one simulation
//	POST   /v1/sweeps                        submit a TDVS (threshold, window) sweep
//	GET    /v1/jobs                          list all jobs
//	GET    /v1/jobs/{id}                     one job's status
//	DELETE /v1/jobs/{id}                     cancel a job
//	GET    /v1/jobs/{id}/artifacts/result.json   finished job's output
//	GET    /v1/jobs/{id}/timeline            finished job's stage timeline (Perfetto JSON)
//	GET    /metrics                          Prometheus text exposition
//	GET    /healthz                          liveness probe (+ queue depth)
//
// Every response carries an X-Request-ID header: the client's, when the
// request brought one, or a freshly minted ID otherwise. The ID is attached
// to the request context as the trace ID, stored on submitted jobs, and
// threaded through the queue into the run context, so one grep over the
// daemon's structured log follows a request end to end.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"nepdvs/internal/core"
	"nepdvs/internal/jobs"
	"nepdvs/internal/obs"
	"nepdvs/internal/span"
)

// maxBodyBytes bounds request bodies; a run config with an inline packet
// schedule can be large, but nothing legitimate approaches this.
const maxBodyBytes = 8 << 20

// RunRequest is the POST /v1/runs body.
type RunRequest struct {
	Config   core.RunConfig `json:"config"`
	Priority int            `json:"priority,omitempty"`
}

// SweepRequest is the POST /v1/sweeps body.
type SweepRequest struct {
	Config      core.RunConfig `json:"config"`
	Thresholds  []float64      `json:"thresholds"`
	Windows     []int64        `json:"windows"`
	Parallelism int            `json:"parallelism,omitempty"`
	Priority    int            `json:"priority,omitempty"`
}

// SubmitResponse answers a successful submission.
type SubmitResponse struct {
	ID string `json:"id"`
	// Deduped reports that an identical job was already queued or running
	// and this submission attached to it instead of creating new work.
	Deduped bool `json:"deduped"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// Server routes HTTP traffic onto a job queue. Create with New; it
// implements http.Handler.
type Server struct {
	queue    *jobs.Queue
	registry *obs.Registry
	log      *slog.Logger
	hRequest *obs.Histogram
	mux      *http.ServeMux
}

// Options configures a Server.
type Options struct {
	// Queue executes the submitted work. Required.
	Queue *jobs.Queue
	// Registry backs GET /metrics. Nil serves an empty exposition.
	Registry *obs.Registry
	// Logger receives one structured record per request, carrying the
	// request's trace ID, status and latency. Nil means silent.
	Logger *slog.Logger
}

// New builds the server and its routes.
func New(opts Options) *Server {
	s := &Server{queue: opts.Queue, registry: opts.Registry, log: opts.Logger, mux: http.NewServeMux()}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.Registry != nil {
		// 100 µs .. ~50 s in ×2 steps: status probes are sub-millisecond,
		// artifact downloads of large sweeps take real time.
		s.hRequest = opts.Registry.Histogram("http_request_seconds", obs.ExponentialEdges(0.0001, 2, 20))
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts/result.json", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /v1/jobs/{id}/assertions", s.handleAssertions)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// RequestIDHeader names the trace-ID header; clients may supply one, and
// every response carries one.
const RequestIDHeader = "X-Request-ID"

// newRequestID mints a server-side trace ID for requests that arrive
// without one.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// rand.Read on supported platforms does not fail; a degenerate ID
		// still beats refusing the request.
		return "r-00000000"
	}
	return "r-" + hex.EncodeToString(b[:])
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// ServeHTTP wraps the mux in the trace-ID middleware: accept or mint the
// request ID, echo it on the response before any handler writes (so even a
// 503 from a full queue carries it), attach it to the context, and emit one
// structured log record plus a latency observation per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set(RequestIDHeader, id)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(rec, r.WithContext(obs.WithTraceID(r.Context(), id)))
	elapsed := time.Since(start)
	if s.hRequest != nil {
		s.hRequest.Observe(elapsed.Seconds())
	}
	s.log.Info("request", "trace_id", id, "method", r.Method, "path", r.URL.Path,
		"status", rec.status, "elapsed", elapsed)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode reads a bounded JSON body, rejecting unknown fields so a typo'd
// config key fails loudly instead of silently simulating the default.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// submit pushes a spec into the queue and maps its errors: validation is
// the caller's fault (400), a full queue is overload (503 + Retry-After), a
// draining queue is 503 without one.
func (s *Server) submit(w http.ResponseWriter, spec jobs.Spec) {
	id, deduped, err := s.queue.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, Deduped: deduped})
	}
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decode(w, r, &req) {
		return
	}
	s.submit(w, jobs.Spec{
		Kind: jobs.KindRun, Config: req.Config, Priority: req.Priority,
		TraceID: obs.TraceIDFrom(r.Context()),
	})
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decode(w, r, &req) {
		return
	}
	s.submit(w, jobs.Spec{
		Kind:   jobs.KindSweep,
		Config: req.Config,
		Sweep: &jobs.SweepSpec{
			Thresholds:  req.Thresholds,
			Windows:     req.Windows,
			Parallelism: req.Parallelism,
		},
		Priority: req.Priority,
		TraceID:  obs.TraceIDFrom(r.Context()),
	})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.queue.Statuses())
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.queue.Status(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := s.queue.Cancel(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	st, err := s.queue.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	raw, err := s.queue.Artifact(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, jobs.ErrNotDone):
		// 409: the job exists but is not in a state that has this artifact.
		writeError(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	}
}

// handleTimeline serves a finished job's stage spans (queue wait,
// execution, artifact write) as a Perfetto/Chrome trace-event file —
// loadable in ui.perfetto.dev alongside a simulation timeline.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	events, err := s.queue.Timeline(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, jobs.ErrNotDone):
		writeError(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		w.Header().Set("Content-Type", "application/json")
		if werr := span.WriteChrome(w, events); werr != nil {
			s.log.Warn("timeline write failed", "trace_id", obs.TraceIDFrom(r.Context()), "err", werr)
		}
	}
}

// handleAssertions serves a finished job's unified assertion report: the
// per-formula verdicts, violation witnesses, worst offender and violation
// density derived from the stored artifact. Derivation is pure, so the body
// is byte-identical to loc.BuildReport over the equivalent local run.
func (s *Server) handleAssertions(w http.ResponseWriter, r *http.Request) {
	raw, err := s.queue.Artifact(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, jobs.ErrNotDone):
		writeError(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		rep, err := jobs.AssertionReport(raw)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		body, err := rep.JSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s.registry == nil {
		return
	}
	s.registry.Snapshot().WritePrometheus(w)
}

// healthzResponse is the GET /healthz body. Status is always "ok" when the
// handler answers at all; the queue depths show load, not just
// liveness.
type healthzResponse struct {
	Status  string `json:"status"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:  "ok",
		Queued:  s.queue.Pending(),
		Running: s.queue.Running(),
	})
}
