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
	"sync"
	"sync/atomic"
	"time"

	"malsched"
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
	// (lazy, mincut or dense); empty lets the solver's internal
	// router pick by instance shape. Unknown values are a 400. Pins other
	// than lazy disable LP state capture, so such answers cannot seed a
	// later warm delta solve.
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
	// (lazy, mincut or dense); empty for baseline algorithms,
	// which never solve the LP.
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
// contract). Solver failures run the degradation ladder (see degrade);
// admission past the cache is bounded by s.pending with deadline-aware
// shedding.
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
	dec := route(in, pinned, deadline)

	var opts []malsched.Option
	if req.Rho != nil {
		opts = append(opts, malsched.WithRho(*req.Rho))
	}
	if req.Mu != nil {
		opts = append(opts, malsched.WithMu(*req.Mu))
	}
	if formulation != "" {
		opts = append(opts, malsched.WithFormulation(formulation))
	}

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
	label, degradedReason := "", ""
	if !legacy && useCache && dec.routed {
		if e, ok := s.cache.get(qkey); ok && e.tier >= tierOf(dec.algo) {
			sol, label = e, "hit"
		}
	}

	if sol == nil {
		if dec.algo == malsched.AlgoPaper && !legacy &&
			(formulation == "" || formulation == malsched.FormulationLazy) {
			// Capture on every v2 paper solve: the snapshot is what makes
			// this identity a usable delta base later. Snapshots only exist
			// on the lazy simplex route, so other formulation pins skip the
			// option, and capture stays best-effort underneath — a solve
			// the internal router sends to the min-cut sweep just returns
			// no state, and the identity is not delta-ready.
			opts = append(opts, malsched.WithCapture())
			if warm != nil {
				opts = append(opts, malsched.WithWarmStart(warm))
			}
		}
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
				return nil, err
			}
			s.recordFormulation(res, delta == "warm")
			return &solution{
				res: res, algo: dec.algo, tier: tierOf(dec.algo),
				inst: in, state: res.State, coldNS: int64(time.Since(start)),
			}, nil
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
			// Degradation ladder: a recoverable solver failure is re-solved
			// on a lower rung instead of surfacing as a 500. The fallback
			// runs under its own flight key — never the exact key, so a
			// degraded answer can't masquerade as a clean one — because a
			// failed leader fans its error out to every singleflight waiter
			// at once, and each running its own fallback would turn one
			// fault into a re-solve stampede.
			dsol, reason, ok := s.degradeShared(ctx, in, fp, dec, err, req, start, useCache)
			if !ok {
				if ctxErr := ctx.Err(); ctxErr != nil {
					err = ctxErr
				}
				return nil, err
			}
			sol, degradedReason = dsol, reason
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
	if degradedReason != "" {
		resp.Degraded = true
		resp.DegradedReason = degradedReason
	}
	if !legacy {
		resp.Fingerprint = fp
		resp.StructureFingerprint = in.StructureFingerprint()
		resp.Tier = sol.tier.String()
		resp.Delta = delta
		resp.Refine = s.maybeRefine(in, fp, qkey, dec, req)
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

// denseFallbackMaxTasks and denseFallbackMaxCells cap the dense-oracle
// rung of the degradation ladder: the dense tableau materialises all n*m
// supporting lines, so its cost scales with the task count *and* the
// machine count. Past either bound the rung would trade a numerical
// failure for a tableau storm (a 96-task, 16-machine instance already
// pivots over a ~2000x3000 dense tableau); such instances fall straight
// through to the greedy rung.
const (
	denseFallbackMaxTasks = 128
	denseFallbackMaxCells = 1024
)

// degradeShared runs the degradation ladder at most once per request
// identity: concurrent requests that inherited the same leader's failure
// share one fallback solve through the cache's singleflight (under a
// dedicated "degraded" key, so the answer never lands where a clean solve
// would be read from). Without this, a failed leader turns every waiter
// into an independent fallback solver at once. Cache-less requests fall
// back to a direct ladder run.
func (s *Server) degradeShared(ctx context.Context, in *malsched.Instance, fp string, dec routeDecision, cause error, req *SolveRequestV2, start time.Time, useCache bool) (*solution, string, bool) {
	if !useCache {
		return s.degrade(ctx, in, dec, cause, req, start)
	}
	kind := malsched.ClassifyFailure(cause)
	if !kind.Recoverable() {
		return nil, "", false
	}
	dsol, _, err := s.cache.do(ctx, "d|"+exactKey(fp, dec.algo, req), func() (*solution, error) {
		d, _, ok := s.degrade(ctx, in, dec, cause, req, start)
		if !ok {
			// Report a dead context as such so live waiters retry the
			// flight (cache.do's cancellation rule) instead of failing a
			// healthy request with this leader's abandoned ladder.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, cause
		}
		return d, nil
	})
	if err != nil || dsol == nil {
		return nil, "", false
	}
	return dsol, kind.String(), true
}

// degrade is the degradation ladder: after a recoverable solver failure
// (iteration limit, singular basis, NaN taint, spurious infeasibility,
// worker panic — see malsched.ClassifyFailure) it re-solves the instance on
// progressively cheaper rungs and returns the first answer that lands,
// together with the failure-class label the response carries. It reports
// ok=false — and the caller surfaces the original error — when the failure
// is not recoverable (bad request, cancellation) or every rung failed too.
//
//	rung 1: dense LP oracle — same paper-tier answer, none of the sparse
//	        solver's basis machinery; small instances only.
//	rung 2: greedy critical path — always cheap, tier "greedy".
func (s *Server) degrade(ctx context.Context, in *malsched.Instance, dec routeDecision, cause error, req *SolveRequestV2, start time.Time) (*solution, string, bool) {
	kind := malsched.ClassifyFailure(cause)
	if !kind.Recoverable() {
		return nil, "", false
	}
	reason := kind.String()
	s.stats.Add("degrade_attempts", 1)
	s.recordFormulationDegrade(req.Formulation)
	if dec.algo == malsched.AlgoPaper && len(in.Tasks) <= denseFallbackMaxTasks &&
		len(in.Tasks)*in.M <= denseFallbackMaxCells {
		var opts []malsched.Option
		if req.Rho != nil {
			opts = append(opts, malsched.WithRho(*req.Rho))
		}
		if req.Mu != nil {
			opts = append(opts, malsched.WithMu(*req.Mu))
		}
		opts = append(opts, malsched.WithFormulation(malsched.FormulationDense))
		if res, err := s.pool.SolveAlgo(ctx, malsched.AlgoPaper, in, opts...); err == nil {
			s.stats.Add("degrade_dense", 1)
			return &solution{
				res: res, algo: malsched.AlgoPaper, tier: tierPaper,
				inst: in, coldNS: int64(time.Since(start)),
			}, reason, true
		}
	}
	if res, err := s.pool.SolveAlgo(ctx, malsched.AlgoGreedyCP, in); err == nil {
		s.stats.Add("degrade_greedy", 1)
		return &solution{
			res: res, algo: malsched.AlgoGreedyCP, tier: tierGreedy,
			inst: in, coldNS: int64(time.Since(start)),
		}, reason, true
	}
	s.stats.Add("degrade_exhausted", 1)
	return nil, "", false
}

// maybeRefine queues a background paper solve behind a deadline-downgraded
// answer (the refine-behind half of the v2 contract) and returns the
// response's refine label. The refinement lands in the identity's quality
// slot tier-monotonically and is observable in /metrics: refine_queued,
// refined (completed), refine_dropped (lane full), refine_failed.
func (s *Server) maybeRefine(in *malsched.Instance, fp, qkey string, dec routeDecision, req *SolveRequestV2) string {
	if !dec.downgraded || req.NoCache || s.cache == nil {
		return ""
	}
	if e, ok := s.cache.get(qkey); ok && e.tier >= tierPaper {
		return "" // already refined (or paper-solved outright)
	}
	var opts []malsched.Option
	if req.Rho != nil {
		opts = append(opts, malsched.WithRho(*req.Rho))
	}
	if req.Mu != nil {
		opts = append(opts, malsched.WithMu(*req.Mu))
	}
	// The refinement honours the request's formulation pin (its answer
	// lands under formulation-keyed slots); capture stays lazy-only.
	if f, err := malsched.ParseFormulation(req.Formulation); err == nil && f != "" {
		opts = append(opts, malsched.WithFormulation(f))
	}
	if req.Formulation == "" || req.Formulation == string(malsched.FormulationLazy) {
		opts = append(opts, malsched.WithCapture())
	}
	enqueued := time.Now()
	ok := s.pool.TrySolveBackground(malsched.AlgoPaper, in, func(res *malsched.Result, err error) {
		if err != nil {
			s.stats.Add("refine_failed", 1)
			return
		}
		s.recordFormulation(res, false)
		sol := &solution{
			res: res, algo: malsched.AlgoPaper, tier: tierPaper,
			inst: in, state: res.State, coldNS: int64(time.Since(enqueued)),
		}
		s.cache.putIfBetter(qkey, sol)
		s.cache.putIfBetter(exactKey(fp, malsched.AlgoPaper, req), sol)
		s.stats.Add("refined", 1)
	}, opts...)
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
	workers := s.pool.Workers()
	if workers > len(req.Instances) {
		workers = len(req.Instances)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w0 := 0; w0 < workers; w0++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Instances) {
					return
				}
				one := SolveRequestV2{
					Instance: req.Instances[i], Algo: req.Algo, DeadlineMS: req.DeadlineMS,
					Rho: req.Rho, Mu: req.Mu, NoCache: req.NoCache, IncludeSchedule: req.IncludeSchedule,
				}
				res, err := s.serve(r.Context(), &one, false)
				if err != nil {
					resp.Results[i].Error = err.Error()
				} else {
					resp.Results[i].Result = res
				}
			}
		}()
	}
	wg.Wait()
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
		res, err := s.serve(context.Background(), &req, false)
		if err != nil {
			s.jobs.finish(id, nil, err, time.Now())
		} else {
			s.jobs.finish(id, res, nil, time.Now())
		}
	}()
	s.writeJSON(w, http.StatusAccepted, JobAccepted{ID: id, URL: "/v2/jobs/" + id})
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
		if err != nil || math.IsNaN(rho) || math.IsInf(rho, 0) {
			// ParseFloat happily returns NaN/±Inf for "NaN"/"Inf" — values
			// paramSuffix would encode into a key no solve ever wrote, and
			// that a solve request would have rejected as invalid rho.
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("invalid rho %q: must be a finite number", v))
			return
		}
		req.Rho = &rho
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
