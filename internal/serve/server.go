package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"hybriddelay/internal/pool"
	"hybriddelay/internal/session"
	"hybriddelay/internal/store"
)

// Options configures a Server.
type Options struct {
	// Session is the evaluation engine every job runs on. Required.
	Session *session.Session

	// Store, when non-nil, is the session's mounted persistent store;
	// the server adds its counters to /metrics. Ownership stays with
	// the caller (Shutdown flushes it through Session.Close but does
	// not close it).
	Store *store.Store

	// MaxActive caps concurrently running jobs; PerClient caps running
	// jobs per client identity; Backlog bounds the admission queue.
	// Non-positive values select the defaults (see NewAdmission).
	MaxActive, PerClient, Backlog int

	// TerminalTTL bounds how long a finished job stays queryable and
	// MaxTerminal caps how many terminal jobs the registry retains
	// (oldest-finished evicted first). Non-positive values select the
	// defaults (see DefaultTerminalTTL, DefaultMaxTerminal). Subscribers
	// already streaming an evicted job's events are unaffected.
	TerminalTTL time.Duration
	MaxTerminal int
}

// Server exposes one session.Session as a multi-tenant HTTP service:
//
//	POST   /v1/jobs             submit a JobSpec, returns {"id": ...}
//	GET    /v1/jobs/{id}        job status; result once done
//	GET    /v1/jobs/{id}/events SSE progress stream (?after=N resumes)
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /metrics             cache/solver/store/admission counters
//
// Clients are identified by the X-API-Key header when present, else by
// the remote address's host part. The admission gate grants each
// client a bounded number of concurrently running jobs over a bounded
// global cap, with a bounded FIFO backlog; overflow is answered 429.
type Server struct {
	sess  *session.Session
	st    *store.Store
	reg   *Registry
	adm   *Admission
	mux   *http.ServeMux
	start time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex // serializes submission vs shutdown
	closed bool
	wg     sync.WaitGroup // in-flight job goroutines
}

// NewServer builds the service around an existing session.
func NewServer(opt Options) (*Server, error) {
	if opt.Session == nil {
		return nil, fmt.Errorf("serve: Options.Session is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := NewRegistry()
	reg.SetRetention(opt.TerminalTTL, opt.MaxTerminal)
	s := &Server{
		sess:       opt.Session,
		st:         opt.Store,
		reg:        reg,
		adm:        NewAdmission(opt.MaxActive, opt.PerClient, opt.Backlog),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the job table (tests and embedding callers).
func (s *Server) Registry() *Registry { return s.reg }

// clientID resolves the submitting client's identity for admission
// accounting: the API key when the request carries one, else the
// remote host.
func clientID(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "addr:" + r.RemoteAddr
	}
	return "addr:" + host
}

// jsonError answers a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON answers v as a JSON body with the given status. It marshals
// before writing anything, so a value encoding/json rejects (a NaN
// float) comes back as an error instead of a status line with an empty
// body. The bytes are those json.Encoder would write.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
	return nil
}

// writeStatus answers a job status. A result that cannot be encoded
// (eval reports a normalized area as NaN when the inertial baseline has
// no deviation) is left out, and the status carries an error that says
// why, so the client still sees the job's terminal state.
func writeStatus(w http.ResponseWriter, status int, st JobStatus) {
	err := writeJSON(w, status, st)
	if err == nil {
		return
	}
	st.Result = nil
	st.Error = fmt.Sprintf("result cannot be encoded as JSON: %v", err)
	if err := writeJSON(w, status, st); err != nil {
		jsonError(w, http.StatusInternalServerError, "status cannot be encoded as JSON: %v", err)
	}
}

// handleSubmit validates the spec, registers the job and offers it to
// the admission gate.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	sjob, err := spec.Job()
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	client := clientID(r)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jsonError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := s.reg.Add(spec, client, sjob, ctx, cancel)
	admitted, queued := s.adm.Submit(client, func() { s.startJob(j) })
	s.mu.Unlock()

	if !admitted && !queued {
		s.reg.Remove(j.ID)
		cancel()
		jsonError(w, http.StatusTooManyRequests, "admission backlog full; retry later")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{"id": j.ID, "queued": queued})
}

// startJob moves an admitted job onto its own goroutine. Called with
// s.mu held (synchronous admission) or from a finishing job's slot
// release; the wg.Add happens before the releasing job's wg.Done, so
// Shutdown's Wait cannot miss a backlog dispatch.
func (s *Server) startJob(j *Job) {
	s.reg.Start(j)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.adm.Release(j.Client)
		res, err := s.evaluate(j)
		switch {
		case err == nil:
			// The wire form drops the prepared model set: its Gate field
			// is an interface (not JSON round-trippable), and clients
			// consume accuracy rows, not fitted model objects.
			wire := *res
			wire.Models = nil
			s.reg.Finish(j, StateDone, &wire, nil)
		case j.ctx.Err() != nil:
			s.reg.Finish(j, StateCancelled, nil, err)
		default:
			s.reg.Finish(j, StateFailed, nil, err)
		}
	}()
}

// evaluate runs a job on the session. A panic in the job, on this
// goroutine or on one of its pool workers, comes back as an error and
// its stack is logged, so one bad job cannot take the server down.
func (s *Server) evaluate(j *Job) (res *session.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("serve: job %s panicked: %v\n%s", j.ID, r, debug.Stack())
			res, err = nil, fmt.Errorf("serve: job panicked: %v", r)
		}
		var pe *pool.PanicError
		if errors.As(err, &pe) {
			log.Printf("serve: job %s: %v\n%s", j.ID, pe, pe.Stack)
		}
	}()
	return s.sess.Evaluate(j.ctx, j.withProgress())
}

// handleStatus answers the job's current status (result once done).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	writeStatus(w, http.StatusOK, j.Status())
}

// handleCancel cancels a queued or running job. Cancelling a queued
// job is immediate; a running job stops claiming units and reaches the
// cancelled state at its next stage boundary. Terminal jobs answer
// 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	switch j.State() {
	case StateQueued:
		j.cancel()
		s.reg.Finish(j, StateCancelled, nil, context.Canceled)
	case StateRunning:
		j.cancel()
	default:
		jsonError(w, http.StatusConflict, "job already %s", j.State())
		return
	}
	writeStatus(w, http.StatusAccepted, j.Status())
}

// handleEvents streams the job's event log over SSE: buffered events
// replay first (resumable via ?after=<seq>), live events follow, and
// the stream ends after the terminal "end" event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &after); err != nil || after < 0 {
			jsonError(w, http.StatusBadRequest, "invalid after=%q", v)
			return
		}
	}
	sse, ok := newSSEWriter(w)
	if !ok {
		jsonError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	for {
		evs, more := j.EventsSince(after)
		for _, e := range evs {
			if err := sse.Send(e); err != nil {
				return // client went away
			}
			after = e.Seq
			if e.Kind == "end" {
				return
			}
		}
		// If the log is closed and the "end" event is already behind
		// the requested offset, nothing more will ever arrive — close
		// instead of blocking on a dead notify channel. An "end"
		// published between EventsSince and this check flips the held
		// notify channel, so the select below wakes immediately.
		if j.LogComplete(after) {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// Metrics is the GET /metrics payload: the session's cache and solver
// counters, the persistent store's counters when one is mounted, the
// job table and the admission gate.
type Metrics struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Session       session.Snapshot `json:"session"`
	Store         *store.Stats     `json:"store,omitempty"`
	Jobs          map[State]int    `json:"jobs"`
	JobEvictions  int64            `json:"job_evictions"`
	Admission     AdmissionStats   `json:"admission"`
}

// MetricsSnapshot assembles the /metrics payload (also used by tests
// and the loadgen without going through HTTP).
func (s *Server) MetricsSnapshot() Metrics {
	m := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Session:       s.sess.Snapshot(),
		Jobs:          s.reg.Counts(),
		JobEvictions:  s.reg.Evictions(),
		Admission:     s.adm.Stats(),
	}
	if s.st != nil {
		st := s.st.Stats()
		m.Store = &st
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if err := writeJSON(w, http.StatusOK, s.MetricsSnapshot()); err != nil {
		jsonError(w, http.StatusInternalServerError, "metrics cannot be encoded as JSON: %v", err)
	}
}

// Shutdown drains the server: new submissions are refused (503),
// in-flight and backlogged jobs run to completion — unless ctx expires
// first, which aborts them through their job contexts — and the
// session's durable state is flushed (Session.Close), so no queued
// write-behind golden store write is dropped. The HTTP listener is the
// caller's to close (http.Server.Shutdown composes around this).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel() // abort in-flight jobs at their next stage boundary
		<-done
	}
	s.baseCancel()
	return s.sess.Close()
}
