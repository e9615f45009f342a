// Package server implements malschedd's HTTP serving layer: a JSON API over
// a shared malsched.Pool, a content-addressed result cache, and adaptive
// solver routing.
//
//	POST /v1/solve     — solve one instance synchronously
//	POST /v1/batch     — solve many instances, one response per instance
//	POST /v1/jobs      — submit an async solve; returns a job id
//	GET  /v1/jobs/{id} — poll an async job
//	GET  /healthz      — liveness + pool size
//	GET  /metrics      — expvar-style JSON counters
//
// plus the v2 API (see v2.go): /v2/solve, /v2/batch, /v2/jobs,
// /v2/jobs/{id} and /v2/solutions/{fp}, which add instance identity in
// responses, quality tiers, delta re-solve from a cached base, and
// refine-behind of deadline-downgraded answers. The v1 endpoints are a
// thin compatibility shim over the same serving core with the v2
// behaviours switched off.
//
// Every request funnels through one Pool whose workers own reusable
// cross-phase solver workspaces, so the daemon solves with warm buffers no
// matter which HTTP connection a request arrives on. Results are cached
// content-addressed: the cache key is Instance.Fingerprint (stable under
// task renaming, edge reordering and sub-tolerance float noise) combined
// with the routed algorithm and parameter overrides, fronted by per-key
// singleflight so a thundering herd of identical submissions costs one
// solve. Requests that do not pin an algorithm are routed by instance size
// and deadline (see router.go), and the response reports which path ran.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"malsched"
)

// Config sizes the server. The zero value gives sane defaults throughout.
type Config struct {
	// Workers is the solver pool size; <= 0 means GOMAXPROCS.
	Workers int
	// CacheEntries bounds the resident solution cache; 0 means the default
	// (4096), negative disables caching entirely.
	CacheEntries int
	// MaxJobs bounds async jobs on both ends: at most this many in flight
	// (further submissions get 503) and at most this many finished jobs
	// queryable; <= 0 means the default (1024).
	MaxJobs int
	// MaxBodyBytes caps request bodies; oversized requests get a JSON 413.
	// 0 means the default (256 MiB, room for ~10^5-task instances; a
	// million-task instance serialises past 1 GiB and should be raised
	// explicitly), negative disables the cap.
	MaxBodyBytes int64
	// MaxPending bounds how many requests may wait for a solver worker at
	// once (the admission queue past the cache); requests beyond it are
	// shed with 429 + Retry-After instead of queueing without bound.
	// <= 0 means the default (1024).
	MaxPending int
}

const (
	defaultCacheEntries = 4096
	defaultMaxJobs      = 1024
	defaultMaxBody      = 256 << 20
	defaultMaxPending   = 1024

	// cacheShards spreads the cache over independently locked shards.
	cacheShards = 16

	// statusClientClosedRequest is nginx's non-standard code for "the
	// client went away before the response": the right label for a solve
	// aborted by its own request context, and distinct from every
	// server-fault status the ladder is meant to prevent.
	statusClientClosedRequest = 499

	// retryAfterSeconds is the Retry-After hint on every shed response
	// (429 and 503): pending-queue and job-slot pressure drains at solve
	// speed, so "shortly" is the honest answer.
	retryAfterSeconds = "1"
)

// Server is the serving layer. Create with New, expose via Handler, release
// the solver pool with Close.
type Server struct {
	pool    *malsched.Pool
	cache   *cache
	jobs    *jobStore
	mux     *http.ServeMux
	start   time.Time
	maxBody int64 // request body cap; <= 0 means unlimited

	// pending is the admission queue: a slot is held from "this request
	// needs a solve" to "its solve finished", bounding queued work.
	pending chan struct{}
	// draining flips /readyz to 503 ahead of shutdown so load balancers
	// stop routing here while in-flight requests finish (/healthz stays
	// green: the process is alive, just not accepting).
	draining atomic.Bool

	stats *expvar.Map
	// forms aggregates per-formulation phase-1 effort for the /metrics
	// "formulations" section (see metrics.go).
	forms formulationMetrics
}

// New starts a server (and its solver pool) with the given configuration.
func New(cfg Config) *Server {
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = defaultCacheEntries
	}
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = defaultMaxJobs
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = defaultMaxBody
	}
	maxPending := cfg.MaxPending
	if maxPending <= 0 {
		maxPending = defaultMaxPending
	}
	s := &Server{
		pool:    malsched.NewPool(cfg.Workers),
		jobs:    newJobStore(maxJobs),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		maxBody: maxBody,
		pending: make(chan struct{}, maxPending),
		stats:   new(expvar.Map).Init(),
	}
	if entries > 0 {
		s.cache = newCache(entries, cacheShards)
	}
	s.stats.Set("cache_entries", expvar.Func(func() any { return s.cache.len() }))
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("POST /v2/solve", s.handleSolveV2)
	s.mux.HandleFunc("POST /v2/batch", s.handleBatchV2)
	s.mux.HandleFunc("POST /v2/jobs", s.handleJobSubmitV2)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v2/solutions/{fp}", s.handleSolutionProbe)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the solver pool size.
func (s *Server) Workers() int { return s.pool.Workers() }

// Stats exposes the server's counters (for publishing under expvar).
func (s *Server) Stats() expvar.Var { return s.stats }

// Close shuts down the solver pool. In-flight solves complete; requests
// arriving afterwards fail.
func (s *Server) Close() { s.pool.Close() }

// SetDraining flips the /readyz answer. Call with true before shutting the
// HTTP listener down so load balancers drain traffic away first; /healthz
// is unaffected.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// SolveRequest is the body of POST /v1/solve and POST /v1/jobs.
type SolveRequest struct {
	// Instance is the scheduling problem, in malsched.Instance JSON form.
	Instance *malsched.Instance `json:"instance"`
	// Algo pins the algorithm: paper, ltw, greedy, seq or full. Empty or
	// "auto" lets the server route by size and deadline.
	Algo string `json:"algo,omitempty"`
	// DeadlineMS is the client's latency budget in milliseconds; the router
	// downgrades to cheaper algorithms when the estimate overshoots it.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// Rho / Mu override the paper algorithm's parameters (WithRho/WithMu).
	Rho *float64 `json:"rho,omitempty"`
	Mu  *int     `json:"mu,omitempty"`
	// NoCache bypasses the result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// IncludeSchedule adds the per-task schedule to the response.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
}

// ScheduleItem is one scheduled task in a response.
type ScheduleItem struct {
	Task     int     `json:"task"`
	Name     string  `json:"name,omitempty"`
	Start    float64 `json:"start"`
	Duration float64 `json:"duration"`
	Alloc    int     `json:"alloc"`
}

// SolveResponse is the body answering a solve (directly, per batch entry,
// or inside a finished job).
type SolveResponse struct {
	Makespan    float64 `json:"makespan"`
	LowerBound  float64 `json:"lower_bound,omitempty"`
	Guarantee   float64 `json:"guarantee,omitempty"`
	ProvenRatio float64 `json:"proven_ratio,omitempty"`
	Alloc       []int   `json:"alloc"`
	// Algo is the algorithm that actually ran; Routed says whether the
	// server chose it (true) or the request pinned it (false).
	Algo        string `json:"algo"`
	Routed      bool   `json:"routed"`
	RouteReason string `json:"route_reason,omitempty"`
	// Cache is hit, shared (waited on an identical in-flight solve), miss,
	// or bypass. ColdMS is the originating solve's duration — on a hit,
	// the time the cache saved.
	Cache     string         `json:"cache"`
	ElapsedMS float64        `json:"elapsed_ms"`
	ColdMS    float64        `json:"cold_ms"`
	Schedule  []ScheduleItem `json:"schedule,omitempty"`
	// Degraded marks an answer produced by a fallback rung after the
	// primary solver failed recoverably; DegradedReason is the failure
	// class that triggered the ladder (iteration-limit, singular-basis,
	// nan-taint, infeasible, solver-panic). Both omitted on the normal
	// path, so pre-existing responses are byte-identical.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// errBadRequest marks errors caused by the request (vs. server failures).
var errBadRequest = errors.New("bad request")

// errOverloaded rejects solves past the admission bound (HTTP 429 with a
// Retry-After hint): the pending queue is full, so queueing more work would
// only grow latency without bound.
var errOverloaded = errors.New("server: overloaded, pending queue full, retry later")

// errShedDeadline drops requests whose client deadline expired while they
// waited for a worker (HTTP 503 with Retry-After): the client has already
// given up on this answer, so solving it would waste a worker.
var errShedDeadline = errors.New("server: deadline expired while queued, request shed")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

// solveOne runs one logical v1 solve. It is a thin shim over the shared
// serving core in legacy mode (see serve in v2.go): same routing, cache
// and pool path as /v2, with the v2-only behaviours — quality-slot reads,
// LP state capture, refine-behind — switched off so responses stay
// byte-identical to the pre-v2 server.
func (s *Server) solveOne(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	v2 := &SolveRequestV2{
		Instance: req.Instance, Algo: req.Algo, DeadlineMS: req.DeadlineMS,
		Rho: req.Rho, Mu: req.Mu, NoCache: req.NoCache, IncludeSchedule: req.IncludeSchedule,
	}
	resp, err := s.serve(ctx, v2, true)
	if err != nil {
		return nil, err
	}
	return &resp.SolveResponse, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.stats.Add("requests_solve", 1)
	var req SolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp, err := s.solveOne(r.Context(), &req)
	if err != nil {
		s.solveError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// BatchRequest is the body of POST /v1/batch: shared options applied to
// every instance.
type BatchRequest struct {
	Instances       []*malsched.Instance `json:"instances"`
	Algo            string               `json:"algo,omitempty"`
	DeadlineMS      float64              `json:"deadline_ms,omitempty"`
	Rho             *float64             `json:"rho,omitempty"`
	Mu              *int                 `json:"mu,omitempty"`
	NoCache         bool                 `json:"no_cache,omitempty"`
	IncludeSchedule bool                 `json:"include_schedule,omitempty"`
}

// BatchItem is one instance's outcome: exactly one of Result and Error set.
type BatchItem struct {
	Result *SolveResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// BatchResponse answers POST /v1/batch, order-preserving: Results[i]
// belongs to Instances[i].
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.stats.Add("requests_batch", 1)
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp := BatchResponse{Results: make([]BatchItem, len(req.Instances))}
	s.fanOut(len(req.Instances), func(i int) {
		one := SolveRequest{
			Instance: req.Instances[i], Algo: req.Algo, DeadlineMS: req.DeadlineMS,
			Rho: req.Rho, Mu: req.Mu, NoCache: req.NoCache, IncludeSchedule: req.IncludeSchedule,
		}
		res, err := s.solveOne(r.Context(), &one)
		if err != nil {
			resp.Results[i].Error = err.Error()
		} else {
			resp.Results[i].Result = res
		}
	})
	s.writeJSON(w, http.StatusOK, resp)
}

// fanOut calls item(i) for every i in [0, n) — the instances of one batch —
// from one feeder goroutine per pool worker draining a shared index
// counter. One goroutine per instance would park tens of thousands of
// goroutines ahead of the worker pool on a large batch, each pinning its
// instance and stack.
func (s *Server) fanOut(n int, item func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(s.pool.Workers(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				item(i)
			}
		}()
	}
	wg.Wait()
}

// JobAccepted answers POST /v1/jobs.
type JobAccepted struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.Add("requests_jobs", 1)
	var req SolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Instance == nil {
		s.httpError(w, http.StatusBadRequest, errors.New("missing instance"))
		return
	}
	s.submitJob(w, "/v1/jobs/", func(ctx context.Context) (any, error) { return s.solveOne(ctx, &req) })
}

// submitJob is the async-job runner behind POST /v1/jobs and /v2/jobs: it
// registers a job (503 + Retry-After past the in-flight bound), runs solve
// on its own goroutine, and answers 202 with the job's poll URL under
// prefix. The store keeps solve's result only when it succeeds.
func (s *Server) submitJob(w http.ResponseWriter, prefix string, solve func(context.Context) (any, error)) {
	id, err := s.jobs.create(time.Now())
	if errors.Is(err, errJobsBusy) {
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	go func() {
		s.jobs.setRunning(id)
		// Background context by contract: an accepted job must complete
		// (and stay queryable) even after its submitter disconnects.
		//malsched:detach accepted async job outlives its submitter (202 contract)
		res, err := solve(context.Background())
		s.jobs.finish(id, res, err, time.Now())
	}()
	s.writeJSON(w, http.StatusAccepted, JobAccepted{ID: id, URL: prefix + id})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.stats.Add("requests_jobs_get", 1)
	st, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"workers":        s.pool.Workers(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReadyz answers readiness probes: 200 while the server accepts new
// work, 503 once SetDraining(true) flips it (liveness, /healthz, is a
// separate question — a draining process is alive but should get no new
// traffic).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Draining is a shed like any other: the Retry-After hint tells
		// probes and load balancers when to look again (found by
		// malschedvet's retryafter analyzer — every 503 carries the hint).
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ready",
		"workers": s.pool.Workers(),
	})
}

// solveError maps a serve error onto the right status code. Recoverable
// solver failures never reach here (the degradation ladder answers them);
// what remains is client faults (400), load shedding (429/503 with a
// Retry-After hint), the client's own cancellation or deadline (499/504),
// and genuine server faults (500).
func (s *Server) solveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBadRequest):
		s.httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errShedDeadline), errors.Is(err, errJobsBusy):
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled):
		s.httpError(w, statusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.httpError(w, http.StatusGatewayTimeout, err)
	default:
		s.httpError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) httpError(w http.ResponseWriter, status int, err error) {
	s.stats.Add("errors_total", 1)
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are out; nothing useful left to do but count it.
		s.stats.Add("encode_errors", 1)
	}
}
