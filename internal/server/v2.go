// v2 serving API: identity/quality split, delta re-solve, refine-behind.
//
// The v2 endpoints key cached answers two ways. The *identity* of a
// problem is its full fingerprint (Instance.Fingerprint: structure plus
// quantized numbers); its *shape* is the structure fingerprint
// (Instance.StructureFingerprint: numbers excluded). Each identity owns a
// quality slot in the cache whose entry carries a quality tier (greedy <
// paper) plus the producing algorithm and parameters, and the slot is
// tier-monotonic: answers only ever improve.
//
//	POST /v2/solve          — solve; accepts instance, or base fingerprint + edits
//	POST /v2/batch          — v2 semantics per instance
//	POST /v2/jobs           — async v2 solve
//	GET  /v2/jobs/{id}      — poll (shared store with /v1)
//	GET  /v2/solutions/{fp} — probe the quality slot of an identity
//
// Delta re-solve: a request naming a cached base and a short list of task
// edits re-solves warm — the base's captured LP basis transplants onto the
// edited instance whenever the structure matches and the edit distance is
// within maxDeltaEdits — and cold otherwise, with identical answers either
// way (the warm start only moves the simplex's starting point).
//
// Refine-behind: when a deadline downgrades a routed request to greedy,
// the greedy answer returns immediately (tier "greedy") and a paper solve
// of the same identity is queued on the pool's background lane. The
// refinement overwrites the quality slot tier-monotonically, so a repeat
// of the same request returns tier "paper" at cache-hit latency.
//
// /v1 remains a thin shim over the same core with the v2 behaviours
// switched off (no quality-slot reads, no capture, no refinement), so its
// responses stay byte-identical to the pre-v2 server.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"malsched"
	"malsched/internal/allot"
	"malsched/internal/flow"
)

// maxDeltaEdits is the edit budget of the delta path: a request whose
// edited instance differs from its base in more than this many tasks
// re-solves cold (the transplanted basis would be too stale to help).
const maxDeltaEdits = 8

// shedMinWait is the least real queueing time before a deadline shed can
// fire (see the shed check in serve).
const shedMinWait = 5 * time.Millisecond

// TaskEdit replaces one task's processing-time vector in a delta request.
type TaskEdit struct {
	// Task is the index of the task to edit (into the base instance).
	Task int `json:"task"`
	// Times is the replacement processing-time vector; its length must
	// match the base task's for the warm path to apply (a different
	// length changes the structure fingerprint, forcing a cold solve).
	Times []float64 `json:"times"`
}

// SolveRequestV2 is the body of POST /v2/solve and POST /v2/jobs. Exactly
// one of Instance and Base is usually set: Instance for a self-contained
// request, Base (+ Edits) for a delta request against a cached identity.
// When both are set, Base is a warm-start hint for solving Instance.
type SolveRequestV2 struct {
	Instance *malsched.Instance `json:"instance,omitempty"`
	// Base is the full fingerprint of a previously solved instance whose
	// cached state seeds this solve.
	Base string `json:"base,omitempty"`
	// Edits rewrite individual tasks of the base instance; applied in
	// order, later edits to the same task win.
	Edits []TaskEdit `json:"edits,omitempty"`

	Algo            string   `json:"algo,omitempty"`
	DeadlineMS      float64  `json:"deadline_ms,omitempty"`
	Rho             *float64 `json:"rho,omitempty"`
	Mu              *int     `json:"mu,omitempty"`
	NoCache         bool     `json:"no_cache,omitempty"`
	IncludeSchedule bool     `json:"include_schedule,omitempty"`
	// Formulation pins the phase-1 LP formulation of a paper-tier solve
	// (lazy or mincut); empty lets the solver's internal router pick by
	// instance shape. Unknown values are a 400. A mincut pin disables LP
	// state capture, so such answers cannot seed a later warm delta solve.
	Formulation string `json:"formulation,omitempty"`
}

// SolveResponseV2 answers a v2 solve: the v1 fields plus the identity
// (fingerprints), the answer's quality tier, and what the delta and
// refine-behind machinery did for this request.
type SolveResponseV2 struct {
	SolveResponse
	// Fingerprint and StructureFingerprint identify the solved instance;
	// Fingerprint is what a follow-up delta request passes as base.
	Fingerprint          string `json:"fingerprint"`
	StructureFingerprint string `json:"structure_fingerprint"`
	// Tier is the answer's quality tier: "greedy" or "paper".
	Tier string `json:"tier"`
	// Delta reports the delta path taken for a request with a base:
	// "warm" (re-solved from the cached basis) or "cold" (full solve —
	// unknown base, structure mismatch, or edit distance over budget).
	Delta string `json:"delta,omitempty"`
	// Refine reports refine-behind activity: "queued" when a paper solve
	// was scheduled behind this answer, "dropped" when the background
	// lane was full.
	Refine string `json:"refine,omitempty"`
	// Formulation is the phase-1 LP formulation that produced this answer
	// (lazy or mincut; a degraded answer reports the engine that rescued
	// it); empty for baseline algorithms, which never solve the LP.
	Formulation string `json:"formulation,omitempty"`
}

// paramSuffix canonically encodes the parameter overrides the paper
// algorithm consumes, for cache keys ("" without overrides). A pinned
// formulation is part of the key: "run THIS formulation" must never be
// answered from a slot another formulation filled (the optima agree, but
// the pin is a contract about what ran, and the response reports it).
func paramSuffix(rho *float64, mu *int, formulation string) string {
	s := ""
	if mu != nil {
		s += "|mu=" + strconv.Itoa(*mu)
	}
	if rho != nil {
		s += "|rho=" + strconv.FormatFloat(*rho, 'e', 12, 64)
	}
	if formulation != "" {
		s += "|f=" + formulation
	}
	return s
}

// exactKey addresses the answer of one (instance, algorithm, params)
// triple — the v1 cache contract, kept for pinned algorithms and
// singleflight.
func exactKey(fp string, algo malsched.Algorithm, req *SolveRequestV2) string {
	key := "a|" + fp + "|" + algo.String()
	if algo == malsched.AlgoPaper {
		key += paramSuffix(req.Rho, req.Mu, req.Formulation)
	}
	return key
}

// qualityKey addresses the tier-monotonic quality slot of one instance
// identity (plus the paper parameter overrides, which change what the
// best answer even is).
func qualityKey(fp string, req *SolveRequestV2) string {
	return "q|" + fp + paramSuffix(req.Rho, req.Mu, req.Formulation)
}

// resolveInstance materialises the instance a v2 request asks about:
// directly, or from a cached base identity plus edits. It also decides
// warm-start eligibility — the base's captured state is used when the
// structure matches and the edit distance is within budget. The returned
// delta label is "" (no base involved), "warm" or "cold".
func (s *Server) resolveInstance(req *SolveRequestV2) (in *malsched.Instance, warm *malsched.SolverState, delta string, err error) {
	in = req.Instance
	if req.Base == "" {
		if len(req.Edits) > 0 {
			return nil, nil, "", badRequestf("edits given without a base fingerprint")
		}
		return in, nil, "", nil
	}
	entry, ok := s.cache.get(qualityKey(req.Base, req))
	if !ok || entry.inst == nil {
		if in == nil {
			return nil, nil, "", badRequestf("unknown base %q (evicted or never solved here) and no instance given", req.Base)
		}
		return in, nil, "cold", nil // base gone; the request is self-contained
	}
	base := entry.inst
	switch {
	case len(req.Edits) > 0:
		in, err = applyEdits(base, req.Edits)
		if err != nil {
			return nil, nil, "", err
		}
	case in == nil:
		in = base // pure re-ask of the base identity
	}
	if entry.state == nil || entry.state.StructureFingerprint() != in.StructureFingerprint() {
		return in, nil, "cold", nil
	}
	if d := base.EditDistance(in); d < 0 || d > maxDeltaEdits {
		return in, nil, "cold", nil
	}
	return in, entry.state, "warm", nil
}

// applyEdits returns a copy of base with the edits applied. Edits are
// index-checked here; everything else (monotonicity, concavity) is left
// to instance validation on the solve path, exactly as for a directly
// posted instance.
func applyEdits(base *malsched.Instance, edits []TaskEdit) (*malsched.Instance, error) {
	out := &malsched.Instance{M: base.M, Edges: base.Edges, Tasks: make([]malsched.Task, len(base.Tasks))}
	copy(out.Tasks, base.Tasks)
	for i, e := range edits {
		if e.Task < 0 || e.Task >= len(out.Tasks) {
			return nil, badRequestf("edit %d: task %d out of range (base has %d tasks)", i, e.Task, len(out.Tasks))
		}
		if len(e.Times) == 0 {
			return nil, badRequestf("edit %d: empty times vector", i)
		}
		out.Tasks[e.Task] = malsched.NewTask(out.Tasks[e.Task].Name, e.Times)
	}
	return out, nil
}

// serve is the one serving core behind every solve endpoint. legacy
// selects the /v1 contract: no quality-slot reads, no LP capture, no
// refine-behind — byte-identical behaviour to the pre-v2 server. The v2
// endpoints run with legacy false and get the full pipeline: delta
// resolution, quality-first lookup for routed requests, capture on paper
// solves, and refine-behind on deadline downgrades.
//
// ctx is the request's context: it is threaded into the pool so a client
// disconnect aborts the solve mid-pivot (the async job endpoints pass
// context.Background() — a submitted job outlives its submitter by
// contract). Admission past the cache is bounded by s.pending with
// deadline-aware shedding. A recoverable solver failure runs the
// degradation ladder (see degrade) inside the same flight, while the
// request still holds its admission slot: every waiter of that flight
// shares the one fallback answer, and the response reports it degraded.
func (s *Server) serve(ctx context.Context, req *SolveRequestV2, legacy bool) (*SolveResponseV2, error) {
	start := time.Now()
	in, warm, delta, err := s.resolveInstance(req)
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, badRequestf("missing instance")
	}
	var pinned *malsched.Algorithm
	if req.Algo != "" && req.Algo != "auto" {
		algo, err := malsched.ParseAlgorithm(req.Algo)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		pinned = &algo
	}
	formulation, err := malsched.ParseFormulation(req.Formulation)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	deadline, err := parseDeadline(req.DeadlineMS)
	if err != nil {
		return nil, err
	}
	if err := checkParams(req.Rho, req.Mu, in.M); err != nil {
		return nil, err
	}
	dec := route(in, pinned, deadline)

	useCache := !req.NoCache && s.cache != nil
	var fp, qkey string
	if !legacy || useCache {
		fp = in.Fingerprint()
		qkey = qualityKey(fp, req)
	}

	// Quality-first: a routed v2 request is satisfied by any cached
	// answer of at least the routed tier for this identity — in
	// particular, a refined paper answer serves a deadline-downgraded
	// repeat at hit latency. Pinned requests skip this (pinning means
	// "run THIS algorithm", not "at least this good").
	var sol *solution
	label := ""
	if !legacy && useCache && dec.routed {
		if e, ok := s.cache.get(qkey); ok && e.tier >= tierOf(dec.algo) {
			sol, label = e, "hit"
		}
	}

	if sol == nil {
		// Capture on every v2 paper solve: the snapshot is what makes this
		// identity a usable delta base later.
		opts := solveOptions(req, formulation, dec.algo == malsched.AlgoPaper && !legacy, warm)
		solve := func() (*solution, error) {
			if err := in.Validate(); err != nil {
				return nil, fmt.Errorf("%w: %v", errBadRequest, err)
			}
			// Admission control: past the cache, at most MaxPending
			// requests may sit ahead of the solver pool; the rest are
			// shed immediately (429) rather than queued without bound.
			select {
			case s.pending <- struct{}{}:
			default:
				s.stats.Add("shed_queue_full", 1)
				return nil, errOverloaded
			}
			defer func() { <-s.pending }()
			// Deadline-aware shedding: a request whose latency budget
			// already expired while it waited (behind a failed
			// singleflight leader, or parked in the pending queue) is
			// dropped, not solved — solving it would burn a worker on an
			// answer the client has given up on. The absolute floor keeps
			// sub-millisecond deadlines meaning "route me cheap" (their
			// established role) rather than "shed me": only real queueing
			// time can trigger a shed.
			if deadline > 0 {
				if waited := time.Since(start); waited > deadline && waited >= shedMinWait {
					s.stats.Add("shed_deadline", 1)
					return nil, errShedDeadline
				}
			}
			s.stats.Add("solves_"+dec.algo.String(), 1)
			if delta != "" && dec.algo == malsched.AlgoPaper && !legacy {
				s.stats.Add("delta_"+delta, 1)
			}
			res, err := s.pool.SolveAlgo(ctx, dec.algo, in, opts...)
			if err != nil {
				return s.degrade(ctx, in, dec, err, req, deadline, start)
			}
			// Only the paper algorithm consumes a warm state; an LTW
			// answer to a delta request names its formulation but ran cold.
			s.recordFormulation(res, delta == "warm" && dec.algo == malsched.AlgoPaper)
			return solved(res, dec.algo, in, start), nil
		}
		var out outcome
		if !useCache {
			sol, err = solve()
			label = "bypass"
		} else {
			sol, out, err = s.cache.do(ctx, exactKey(fp, dec.algo, req), solve)
			label = out.String()
		}
		s.stats.Add("cache_"+label, 1)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				err = ctxErr
			}
			return nil, err
		}
		if !legacy && useCache {
			s.cache.putIfBetter(qkey, sol)
		}
	} else {
		s.stats.Add("cache_hit", 1)
	}

	resp := &SolveResponseV2{SolveResponse: SolveResponse{
		Makespan:    sol.res.Makespan,
		LowerBound:  sol.res.LowerBound,
		Guarantee:   sol.res.Guarantee,
		ProvenRatio: sol.res.ProvenRatio,
		Alloc:       sol.res.Alloc,
		Algo:        sol.algo.String(),
		Routed:      dec.routed,
		RouteReason: dec.reason,
		Cache:       label,
		ElapsedMS:   float64(time.Since(start)) / float64(time.Millisecond),
		ColdMS:      float64(sol.coldNS) / float64(time.Millisecond),
	}}
	// The degraded label belongs to the flight that fell back: a
	// quality-slot hit on a rung's answer is just an answer of its tier.
	if label != "hit" && sol.degraded != "" {
		resp.Degraded = true
		resp.DegradedReason = sol.degraded
	}
	if !legacy {
		resp.Fingerprint = fp
		resp.StructureFingerprint = in.StructureFingerprint()
		resp.Tier = sol.tier.String()
		resp.Delta = delta
		resp.Refine = s.maybeRefine(in, fp, qkey, dec, req, formulation)
		resp.Formulation = string(sol.res.Formulation)
	}
	if req.IncludeSchedule {
		items := sol.res.Schedule.Items
		resp.Schedule = make([]ScheduleItem, len(items))
		for j, it := range items {
			resp.Schedule[j] = ScheduleItem{
				Task: it.Task, Start: it.Start, Duration: it.Duration, Alloc: it.Alloc,
			}
			if it.Task >= 0 && it.Task < len(in.Tasks) {
				resp.Schedule[j].Name = in.Tasks[it.Task].Name
			}
		}
	}
	return resp, nil
}

// checkParams rejects paper-parameter overrides outside their domains,
// 0 <= rho <= 1 and 1 <= mu <= m, as client errors before the request
// takes a pending slot (core rejects the same values, but only on a
// worker, and they would surface as 500s). m < 1 leaves mu's upper bound
// unchecked: the solutions probe names no instance.
func checkParams(rho *float64, mu *int, m int) error {
	if rho != nil && !(*rho >= 0 && *rho <= 1) {
		return badRequestf("rho=%v outside [0,1]", *rho)
	}
	if mu != nil && *mu < 1 {
		return badRequestf("mu=%d below 1", *mu)
	}
	if mu != nil && m >= 1 && *mu > m {
		return badRequestf("mu=%d exceeds m=%d", *mu, m)
	}
	return nil
}

// solveOptions builds the solver options of one solve of req: its rho/mu
// overrides and the formulation pin f ("" lets allot route). With capture
// set, the solve also captures its LP state, warm-started from warm when
// given. Both are best-effort: snapshots only exist on the lazy simplex
// route, so a solve that runs on the sweep, pinned or routed there,
// ignores warm and returns no state (the identity is not delta-ready).
func solveOptions(req *SolveRequestV2, f malsched.Formulation, capture bool, warm *malsched.SolverState) []malsched.Option {
	var opts []malsched.Option
	if req.Rho != nil {
		opts = append(opts, malsched.WithRho(*req.Rho))
	}
	if req.Mu != nil {
		opts = append(opts, malsched.WithMu(*req.Mu))
	}
	if f != "" {
		opts = append(opts, malsched.WithFormulation(f))
	}
	if capture {
		opts = append(opts, malsched.WithCapture())
		if warm != nil {
			opts = append(opts, malsched.WithWarmStart(warm))
		}
	}
	return opts
}

// degrade is the degradation ladder, run inside the primary solve's flight
// after its recoverable failure (iteration limit, singular basis, NaN
// taint, spurious infeasibility, worker panic — see
// malsched.ClassifyFailure): it re-solves the instance on progressively
// cheaper rungs and returns the first answer that lands, labelled with
// the failure class (solution.degraded). It returns an error when the
// failure is not recoverable (bad request, cancellation) or every rung
// failed too: the context's error once ctx is dead, so live waiters of
// the flight retry it (cache.do's cancellation rule) instead of failing a
// healthy request with this leader's abandoned ladder; cause otherwise.
//
//	rung 1: the other exact phase-1 engine, same paper tier. The engine
//	        that failed is the pin if there is one, else the one
//	        allot.UseMincut picked; a stalled sweep (flow.ErrStalled)
//	        always means the sweep ran. Taken only at sizes where
//	        paperNSPerN2·n² prices either engine (rungPriced), and only
//	        when that estimate fits what is left of the budget
//	        (measurements: DESIGN.md §9).
//	rung 2: greedy critical path, tier "greedy". Its cost is quadratic
//	        but small next to a paper solve's: O(grants·(n+E)), ~0.25 s at
//	        n=2000/m=64 (DESIGN.md §8).
func (s *Server) degrade(ctx context.Context, in *malsched.Instance, dec routeDecision, cause error, req *SolveRequestV2, deadline time.Duration, start time.Time) (*solution, error) {
	kind := malsched.ClassifyFailure(cause)
	if !kind.Recoverable() {
		return nil, cause
	}
	s.stats.Add("degrade_attempts", 1)
	s.recordFormulationDegrade(req.Formulation)
	budget := autoPaperBudget
	if deadline > 0 {
		budget = deadline
	}
	var sol *solution
	n := len(in.Tasks)
	if dec.algo == malsched.AlgoPaper && rungPriced(n, in.M) &&
		time.Duration(paperNSPerN2*int64(n)*int64(n)) <= budget-time.Since(start) {
		ranSweep := req.Formulation == string(malsched.FormulationMincut)
		if req.Formulation == "" {
			ranSweep = allot.UseMincut(n, in.M, depth(in))
		}
		other := malsched.FormulationMincut
		if ranSweep || errors.Is(cause, flow.ErrStalled) {
			other = malsched.FormulationLazy
		}
		if res, err := s.pool.SolveAlgo(ctx, malsched.AlgoPaper, in, solveOptions(req, other, false, nil)...); err == nil {
			s.stats.Add("degrade_engine", 1)
			sol = solved(res, malsched.AlgoPaper, in, start)
		}
	}
	if sol == nil {
		if res, err := s.pool.SolveAlgo(ctx, malsched.AlgoGreedyCP, in); err == nil {
			s.stats.Add("degrade_greedy", 1)
			sol = solved(res, malsched.AlgoGreedyCP, in, start)
		}
	}
	if sol == nil {
		s.stats.Add("degrade_exhausted", 1)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, cause
	}
	sol.degraded = kind.String()
	return sol, nil
}

// maybeRefine queues a background paper solve behind a deadline-downgraded
// answer (the refine-behind half of the v2 contract) and returns the
// response's refine label. The refinement honours the request's
// formulation pin f (its answer lands under formulation-keyed slots) and
// lands in the identity's quality slot tier-monotonically. It is
// observable in /metrics: refine_queued, refined (completed),
// refine_dropped (lane full), refine_failed.
func (s *Server) maybeRefine(in *malsched.Instance, fp, qkey string, dec routeDecision, req *SolveRequestV2, f malsched.Formulation) string {
	if !dec.downgraded || req.NoCache || s.cache == nil {
		return ""
	}
	if e, ok := s.cache.get(qkey); ok && e.tier >= tierPaper {
		return "" // already refined (or paper-solved outright)
	}
	enqueued := time.Now()
	ok := s.pool.TrySolveBackground(malsched.AlgoPaper, in, func(res *malsched.Result, err error) {
		if err != nil {
			s.stats.Add("refine_failed", 1)
			return
		}
		s.recordFormulation(res, false)
		sol := solved(res, malsched.AlgoPaper, in, enqueued)
		s.cache.putIfBetter(qkey, sol)
		s.cache.putIfBetter(exactKey(fp, malsched.AlgoPaper, req), sol)
		s.stats.Add("refined", 1)
	}, solveOptions(req, f, true, nil)...)
	if !ok {
		s.stats.Add("refine_dropped", 1)
		return "dropped"
	}
	s.stats.Add("refine_queued", 1)
	return "queued"
}

// parseDeadline validates and converts the request's deadline field. A
// non-finite deadline would flow into an undefined float->int conversion
// (time.Duration(NaN * ...)), a negative one would silently mean
// "unconstrained", and a finite value overflowing time.Duration would
// wrap to the same undefined conversion — all client errors. The overflow
// guard compares in float space, where float64(MaxInt64) is exact.
func parseDeadline(ms float64) (time.Duration, error) {
	if math.IsNaN(ms) || math.IsInf(ms, 0) || ms < 0 ||
		ms*float64(time.Millisecond) >= float64(math.MaxInt64) {
		return 0, badRequestf("invalid deadline_ms %v: must be finite, non-negative and under %v ms", ms, int64(math.MaxInt64)/int64(time.Millisecond))
	}
	return time.Duration(ms * float64(time.Millisecond)), nil
}

func (s *Server) handleSolveV2(w http.ResponseWriter, r *http.Request) {
	s.stats.Add("requests_v2_solve", 1)
	var req SolveRequestV2
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp, err := s.serve(r.Context(), &req, false)
	if err != nil {
		s.solveError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// BatchRequestV2 is the body of POST /v2/batch: shared options applied to
// every instance (delta requests go through /v2/solve; batches are for
// fleets of distinct instances).
type BatchRequestV2 struct {
	Instances       []*malsched.Instance `json:"instances"`
	Algo            string               `json:"algo,omitempty"`
	DeadlineMS      float64              `json:"deadline_ms,omitempty"`
	Rho             *float64             `json:"rho,omitempty"`
	Mu              *int                 `json:"mu,omitempty"`
	NoCache         bool                 `json:"no_cache,omitempty"`
	IncludeSchedule bool                 `json:"include_schedule,omitempty"`
	// Formulation pins every item's phase-1 formulation, as on /v2/solve;
	// an unknown value is each item's error.
	Formulation string `json:"formulation,omitempty"`
}

// BatchItemV2 is one instance's outcome: exactly one of Result and Error.
type BatchItemV2 struct {
	Result *SolveResponseV2 `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// BatchResponseV2 answers POST /v2/batch, order-preserving.
type BatchResponseV2 struct {
	Results []BatchItemV2 `json:"results"`
}

func (s *Server) handleBatchV2(w http.ResponseWriter, r *http.Request) {
	s.stats.Add("requests_v2_batch", 1)
	var req BatchRequestV2
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp := BatchResponseV2{Results: make([]BatchItemV2, len(req.Instances))}
	s.fanOut(len(req.Instances), func(i int) {
		one := SolveRequestV2{
			Instance: req.Instances[i], Algo: req.Algo, DeadlineMS: req.DeadlineMS, Rho: req.Rho, Mu: req.Mu,
			NoCache: req.NoCache, IncludeSchedule: req.IncludeSchedule, Formulation: req.Formulation,
		}
		res, err := s.serve(r.Context(), &one, false)
		if err != nil {
			resp.Results[i].Error = err.Error()
		} else {
			resp.Results[i].Result = res
		}
	})
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobSubmitV2(w http.ResponseWriter, r *http.Request) {
	s.stats.Add("requests_v2_jobs", 1)
	var req SolveRequestV2
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Instance == nil && req.Base == "" {
		s.httpError(w, http.StatusBadRequest, errors.New("missing instance (or base fingerprint)"))
		return
	}
	s.submitJob(w, "/v2/jobs/", func(ctx context.Context) (any, error) { return s.serve(ctx, &req, false) })
}

// SolutionProbe answers GET /v2/solutions/{fp}: what the quality slot of
// an identity currently holds. DeltaReady reports whether the entry can
// seed a warm delta solve (a captured LP state is attached).
type SolutionProbe struct {
	Fingerprint string  `json:"fingerprint"`
	Tier        string  `json:"tier"`
	Algo        string  `json:"algo"`
	Makespan    float64 `json:"makespan"`
	LowerBound  float64 `json:"lower_bound,omitempty"`
	Guarantee   float64 `json:"guarantee,omitempty"`
	DeltaReady  bool    `json:"delta_ready"`
	// Formulation is the phase-1 LP formulation that produced the cached
	// answer ("" for a greedy-tier entry, which never solved the LP).
	Formulation string `json:"formulation,omitempty"`
}

func (s *Server) handleSolutionProbe(w http.ResponseWriter, r *http.Request) {
	s.stats.Add("requests_v2_solutions", 1)
	fp := r.PathValue("fp")
	req := &SolveRequestV2{}
	if v := r.URL.Query().Get("mu"); v != "" {
		mu, err := strconv.Atoi(v)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("invalid mu %q", v))
			return
		}
		req.Mu = &mu
	}
	if v := r.URL.Query().Get("rho"); v != "" {
		rho, err := strconv.ParseFloat(v, 64)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("invalid rho %q", v))
			return
		}
		req.Rho = &rho
	}
	// The solve path's own range check: a value it rejects (NaN and ±Inf,
	// which ParseFloat accepts, among them) addresses no slot any solve
	// ever wrote, so it is a 400 here too, not a silent 404.
	if err := checkParams(req.Rho, req.Mu, 0); err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	if v := r.URL.Query().Get("formulation"); v != "" {
		if _, err := malsched.ParseFormulation(v); err != nil {
			s.httpError(w, http.StatusBadRequest, err)
			return
		}
		req.Formulation = v
	}
	e, ok := s.cache.get(qualityKey(fp, req))
	if !ok {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("no cached solution for %q", fp))
		return
	}
	s.writeJSON(w, http.StatusOK, SolutionProbe{
		Fingerprint: fp,
		Tier:        e.tier.String(),
		Algo:        e.algo.String(),
		Makespan:    e.res.Makespan,
		LowerBound:  e.res.LowerBound,
		Guarantee:   e.res.Guarantee,
		DeltaReady:  e.state != nil,
		Formulation: string(e.res.Formulation),
	})
}
