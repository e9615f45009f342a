package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"malsched"
	"malsched/internal/allot"
	"malsched/internal/core"
	"malsched/internal/dag"
	"malsched/internal/engine"
	"malsched/internal/listsched"
	"malsched/internal/prep"
	"malsched/internal/schedule"
	"malsched/internal/server"
	"malsched/internal/solver"
)

// The traced run times, from the benchmark's own code, the calls into each
// layer's public functions on a fixed seeded sample of the workload. Each
// call is a span (name, start, end, parent, request id) with the counts
// taken at the same boundary. Spans stay in memory until the run ends.

type span struct {
	Name   string           `json:"name"`
	Req    int              `json:"req"`
	Parent int              `json:"parent"` // index of the parent span, -1 for a root
	Start  float64          `json:"start_us"`
	End    float64          `json:"end_us"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) ms() float64 { return (s.End - s.Start) / 1e3 }

type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.origin)) / 1e3 }

// add records a finished span and returns its index.
func (r *recorder) add(name string, req, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: r.us(start), End: r.us(end)})
	return len(r.spans) - 1
}

// begin opens a span now; end closes it.
func (r *recorder) begin(name string, req, parent int) int {
	now := time.Now()
	return r.add(name, req, parent, now, now)
}

func (r *recorder) end(id int) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = r.us(now)
}

// timed runs f as a span.
func (r *recorder) timed(name string, req, parent int, f func()) int {
	id := r.begin(name, req, parent)
	f()
	r.end(id)
	return id
}

func (r *recorder) ms(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].ms()
}

func (r *recorder) count(id int, key string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans[id].Counts == nil {
		r.spans[id].Counts = map[string]int64{}
	}
	r.spans[id].Counts[key] += v
}

// layerStats is the per-name aggregate of the spans.
type layerStats struct {
	calls  int
	total  float64 // ms
	self   float64 // ms: span minus the spans nested in it
	counts map[string]int64
}

func (r *recorder) stats() map[string]*layerStats {
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
		}
	}
	out := map[string]*layerStats{}
	for i, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStats{counts: map[string]int64{}}
			out[s.Name] = st
		}
		st.calls++
		st.total += s.ms()
		st.self += max(0, s.ms()-child[i])
		for k, v := range s.Counts {
			st.counts[k] += v
		}
	}
	return out
}

// write stores the spans as JSON under .bench_build/trace in the working
// directory.
func (r *recorder) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Mallocs)
}

// memServer is a second server of the same configuration, driven in
// memory through Handler().ServeHTTP: the handler's time without the
// socket.
type memServer struct {
	srv *server.Server
	h   http.Handler
}

func (m *memServer) serve(body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	m.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/solve", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// prime sends the set-up requests of the loopback stand to m as well, so
// both servers hold the same cache.
func (m *memServer) prime(st *stand) error {
	var bodies [][]byte
	for _, k := range st.keys {
		bodies = append(bodies, k.body)
	}
	for _, in := range st.bases {
		raw, err := json.Marshal(server.SolveRequestV2{Instance: in})
		if err != nil {
			return err
		}
		bodies = append(bodies, raw)
	}
	for _, b := range bodies {
		if status, raw := m.serve(b); status != http.StatusOK {
			return fmt.Errorf("priming in memory: status %d: %.200s", status, raw)
		}
	}
	return nil
}

// toAllot converts an instance the way malsched.Solve does.
func toAllot(in *malsched.Instance) (*allot.Instance, error) {
	g := dag.New(len(in.Tasks))
	for _, e := range prep.DedupEdges(in.Edges) {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return &allot.Instance{G: g, Tasks: in.Tasks, M: in.M}, nil
}

// stageNames are the spans of core.SolveWith's stages, in pipeline order.
var stageNames = []string{
	"prep.reduce", "allot.phase1.lazy", "allot.phase1.warm", "allot.phase1.mincut",
	"allot.phase1.other", "allot.capture", "allot.round", "listsched.list", "schedule.verify",
}

// solveLayers replays core.SolveWith's pipeline on ai one stage at a time
// (a "solver.stages" span under parent with a span per stage), then times
// core.SolveWith itself on the same instance and workspace. opt.WarmLP
// selects the warm delta solve, opt.CaptureLP the serving layer's LP
// capture. A replay whose makespan differs from core.SolveWith's no
// longer follows the pipeline, and is returned as a problem.
func solveLayers(rec *recorder, req, parent int, ai *allot.Instance, opt core.Options, ws *solver.Workspace) (*core.Result, string, error) {
	stg := rec.begin("solver.stages", req, parent)
	mk, err := stages(rec, req, stg, ai, opt, ws)
	rec.end(stg)
	if err != nil {
		return nil, "", err
	}
	var res *core.Result
	a := mallocs()
	id := rec.timed("core.solve", req, parent, func() { res, err = core.SolveWith(ai, opt, ws) })
	rec.count(id, "allocs", mallocs()-a)
	if err != nil {
		return nil, "", err
	}
	if mk != res.Makespan {
		return res, fmt.Sprintf("request %d: stage replay makespan %v != core.SolveWith %v", req, mk, res.Makespan), nil
	}
	return res, "", nil
}

func stages(rec *recorder, req, parent int, ai *allot.Instance, opt core.Options, ws *solver.Workspace) (float64, error) {
	defer ws.Release()
	var red *allot.Instance
	rec.timed("prep.reduce", req, parent, func() { red = ws.Reduce(ai) })
	lpws := ws.LP()
	var frac *allot.Fractional
	var err error
	t := time.Now()
	if opt.WarmLP != nil {
		frac, err = allot.SolveLPDeltaWith(red, lpws, opt.WarmLP)
	} else {
		frac, err = allot.SolveLPWith(red, lpws)
	}
	end := time.Now()
	if err != nil {
		return 0, err
	}
	name := "allot.phase1.other"
	switch {
	case opt.WarmLP != nil:
		name = "allot.phase1.warm"
	case frac.Formulation == allot.FormulationLazy:
		name = "allot.phase1.lazy"
	case frac.Formulation == allot.FormulationMincut:
		name = "allot.phase1.mincut"
	}
	id := rec.add(name, req, parent, t, end)
	rec.count(id, "cuts", int64(frac.Cuts))
	rec.count(id, "rounds", int64(frac.Rounds))
	if opt.CaptureLP && frac.Formulation == allot.FormulationLazy {
		rec.timed("allot.capture", req, parent, func() { lpws.CaptureLP(red) })
	}
	mu, rho, _ := malsched.Params(ai.M)
	var alpha []int
	rec.timed("allot.round", req, parent, func() {
		alpha = listsched.CapAllotment(allot.RoundWith(red, frac, rho, lpws), mu)
	})
	var sched *schedule.Schedule
	rec.timed("listsched.list", req, parent, func() { sched, err = listsched.RunWith(red, alpha, ws.Sched()) })
	if err != nil {
		return 0, err
	}
	rec.timed("schedule.verify", req, parent, func() { err = sched.Verify(ai.G) })
	return sched.Makespan(), err
}

// replayJob is one solve of the engine replay.
type replayJob struct {
	due time.Duration
	ai  *allot.Instance
	opt core.Options
}

// replayEngine submits the jobs to a fresh engine pool from conns callers
// at their due times (back to back when every due time is 0). Each job
// stamps, inside the pool, when a worker picked it up, so its wait is
// measured where it happens. It returns the workers' busy share.
func replayEngine(rec *recorder, jobs []replayJob) (float64, error) {
	pool := engine.New(0)
	defer pool.Close()
	queue := make(chan int)
	var mu sync.Mutex
	var busy time.Duration
	var last time.Time
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range queue {
				submit := time.Now()
				var picked, done time.Time
				err := pool.RunOne(context.Background(), func(ws *solver.Workspace) error {
					picked = time.Now()
					_, err := core.SolveWith(jobs[k].ai, jobs[k].opt, ws)
					done = time.Now()
					return err
				})
				root := rec.add("engine.run_one", k, -1, submit, time.Now())
				rec.add("engine.queue_wait", k, root, submit, picked)
				rec.add("engine.job", k, root, picked, done)
				mu.Lock()
				busy += done.Sub(picked)
				if done.After(last) {
					last = done
				}
				mu.Unlock()
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	t0 := time.Now()
	for k, j := range jobs {
		time.Sleep(time.Until(t0.Add(j.due)))
		queue <- k
	}
	close(queue)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return busy.Seconds() / (float64(pool.Workers()) * last.Sub(t0).Seconds()), nil
}

// Traced sample sizes: each open-loop phase holds enough requests for a
// p90 (at least 100) at the workload's rate; the serial replay covers
// every serve_miss class a dozen times or more.
const (
	traceOpenRequests = 150
	traceSerialHit    = 64
	traceSerialMiss   = 48
	traceBatchN       = 4
)

// traceServe is the traced run of a serving workload.
func traceServe(spec serveSpec, cfg runConfig) (*result, error) {
	st, err := setUpServe(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer st.close()
	mem := &memServer{srv: server.New(cfg.server)}
	defer mem.srv.Close()
	mem.h = mem.srv.Handler()
	if err := mem.prime(st); err != nil {
		return nil, err
	}
	res := &result{workload: spec.name}
	rec := newRecorder()
	var all tally

	// Open loop, once untraced and once traced, on disjoint stretches of
	// the request stream: lateness, and the tracing overhead.
	due := arrivals(cfg.seed, spec.rate, traceOpenRequests/spec.rate)
	plain, err := st.openLoop(spec, cfg.seed, due, 0, nil)
	if err != nil {
		return nil, err
	}
	traced, err := st.openLoop(spec, cfg.seed, due, len(due), rec)
	if err != nil {
		return nil, err
	}
	all.merge(&plain.tally)
	all.merge(&traced.tally)
	late90, err := percentile(traced.late, 90)
	if err != nil {
		return nil, fmt.Errorf("lateness: %w", err)
	}
	plainP50, err := percentile(plain.latency, 50)
	if err != nil {
		return nil, err
	}
	tracedP50, err := percentile(traced.latency, 50)
	if err != nil {
		return nil, err
	}
	res.info = append(res.info, fmt.Sprintf("tracing overhead: open-loop p50 %.4f ms traced vs %.4f ms untraced (n=%d each)", tracedP50, plainP50, len(due)))

	// Serial replay: each request through the loopback, through the
	// in-memory handler, then the handler's layers one call at a time.
	n := traceSerialMiss
	if spec.hit {
		n = traceSerialHit
	}
	first := (2*len(due) + 3) / 4 * 4 // a whole block of the serve_miss mix
	ws := solver.NewWorkspace()
	snaps := make([]*allot.LPSnapshot, len(st.bases))
	for b, in := range st.bases {
		ai, err := toAllot(in)
		if err != nil {
			return nil, err
		}
		r, err := core.SolveWith(ai, core.Options{CaptureLP: true}, ws)
		if err != nil {
			return nil, err
		}
		snaps[b] = r.LPSnapshot
	}
	var transport []float64
	var jobs []replayJob
	jobDue := firstArrivals(cfg.seed, spec.rate, n)
	for k := 0; k < n; k++ {
		i := first + k
		root := rec.begin("request", i, -1)
		var r *request
		rec.timed("client.prep", i, root, func() { r, err = st.request(spec, cfg.seed, i, true) })
		if err != nil {
			return nil, err
		}
		var o outcome
		post := rec.timed("client.post", i, root, func() { o = st.exchange(spec, r) })
		all.add(o)
		var status int
		var raw []byte
		a := mallocs()
		h := rec.timed("server.handler", i, root, func() { status, raw = mem.serve(r.body) })
		rec.count(h, "allocs", mallocs()-a)
		if _, err := checkAnswer(status, raw, r.lb0, cacheWant(spec)); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("in-memory request %d: %v", i, err))
		}
		transport = append(transport, rec.ms(post)-rec.ms(h))

		replay := rec.begin("server.replay", i, root)
		rec.timed("server.decode", i, replay, func() {
			var req server.SolveRequestV2
			err = json.NewDecoder(bytes.NewReader(r.body)).Decode(&req)
		})
		if err != nil {
			return nil, err
		}
		rec.timed("malsched.fingerprint", i, replay, func() { r.inst.Fingerprint() })
		rec.timed("malsched.structure_fingerprint", i, replay, func() { r.inst.StructureFingerprint() })
		if !spec.hit {
			rec.timed("malsched.validate", i, replay, func() { err = r.inst.Validate() })
			if err != nil {
				return nil, err
			}
			ai, err := toAllot(r.inst)
			if err != nil {
				return nil, err
			}
			opt := core.Options{CaptureLP: true} // as the server solves v2 requests
			if r.class == classDelta && o.ans != nil && o.ans.Delta == "warm" {
				opt.WarmLP = snaps[r.base]
			}
			cr, problem, err := solveLayers(rec, i, replay, ai, opt, ws)
			if err != nil {
				return nil, err
			}
			if problem != "" {
				res.problems = append(res.problems, problem)
			}
			if o.ans != nil && o.ans.Makespan != cr.Makespan {
				res.problems = append(res.problems, fmt.Sprintf("request %d: served makespan %v != core.SolveWith %v", i, o.ans.Makespan, cr.Makespan))
			}
			jobs = append(jobs, replayJob{due: time.Duration(jobDue[k] * float64(time.Second)), ai: ai, opt: opt})
		}
		if o.ans != nil {
			rec.timed("server.encode", i, replay, func() { err = json.NewEncoder(new(bytes.Buffer)).Encode(o.ans) })
			if err != nil {
				return nil, err
			}
		}
		rec.end(replay)
		rec.end(root)
	}

	// Engine replay at the workload's arrival times; a hit never reaches
	// the pool.
	busy := 0.0
	if len(jobs) > 0 {
		if busy, err = replayEngine(rec, jobs); err != nil {
			return nil, err
		}
	}

	res.attempted, res.failed = all.attempted, all.failed
	res.problems = append(res.problems, all.problems...)
	if err := hitShareMatches(spec, all.hits, all.attempted); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	layerMetrics(res, rec, all, busy, late90, len(traced.late), transport)
	res.add("client.traced_p50_ms", tracedP50, "ms", len(traced.latency), "open-loop p50 with span recording")
	res.add("client.untraced_p50_ms", plainP50, "ms", len(plain.latency), "open-loop p50 without span recording")
	if !spec.hit {
		requireCoverage(res)
	}
	return res, finishTrace(res, rec, cfg.seed)
}

// traceBatch is the traced run of batch_large.
func traceBatch(cfg runConfig) (*result, error) {
	pool, err := setUpBatch(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	res := &result{workload: "batch_large"}
	rec := newRecorder()
	ws := solver.NewWorkspace()
	var jobs []replayJob
	for i := 0; i < traceBatchN; i++ {
		root := rec.begin("request", i, -1)
		var in *malsched.Instance
		rec.timed("client.prep", i, root, func() { in = batchInstance(cfg.seed, streamBatch, i) })
		var br malsched.BatchResult
		rec.timed("malsched.solve_batch", i, root, func() {
			br = pool.SolveBatch(context.Background(), []*malsched.Instance{in})[0]
		})
		if br.Err != nil {
			return nil, br.Err
		}
		res.attempted++
		var verr error
		rec.timed("malsched.verify", i, root, func() { _, verr = checkBatchResult(in, br.Result) })
		if verr != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("instance %d: %v", i, verr))
		}
		rec.timed("malsched.validate", i, root, func() { err = in.Validate() })
		if err != nil {
			return nil, err
		}
		ai, err := toAllot(in)
		if err != nil {
			return nil, err
		}
		cr, problem, err := solveLayers(rec, i, root, ai, core.Options{}, ws)
		if err != nil {
			return nil, err
		}
		if problem != "" {
			res.problems = append(res.problems, problem)
		}
		if br.Result.Makespan != cr.Makespan {
			res.problems = append(res.problems, fmt.Sprintf("instance %d: SolveBatch makespan %v != core.SolveWith %v", i, br.Result.Makespan, cr.Makespan))
		}
		jobs = append(jobs, replayJob{ai: ai})
		rec.end(root)
	}
	busy, err := replayEngine(rec, jobs)
	if err != nil {
		return nil, err
	}
	layerMetrics(res, rec, tally{}, busy, 0, 0, nil)
	res.add("client.traced_p50_ms", 0, "ms", 0, "no open loop on this workload")
	res.add("client.untraced_p50_ms", 0, "ms", 0, "no open loop on this workload")
	requireCoverage(res)
	return res, finishTrace(res, rec, cfg.seed)
}

// layerMetrics derives the per-layer metrics from the spans. A layer that
// is not on the workload's path reports 0 with n=0.
func layerMetrics(res *result, rec *recorder, all tally, busy, late90 float64, lateN int, transport []float64) {
	st := rec.stats()
	get := func(name string) *layerStats {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStats{counts: map[string]int64{}}
	}
	ratio := func(num float64, den int) float64 {
		if den == 0 {
			return 0
		}
		return num / float64(den)
	}
	meanMS := func(metric, span string) {
		s := get(span)
		res.add(metric, ratio(s.total, s.calls), "ms", s.calls, "mean per call of "+span)
	}
	perCall := func(metric string, total int64, calls int, note string) {
		res.add(metric, ratio(float64(total), calls), "count", calls, note)
	}
	share := func(metric string, num, den int, note string) {
		res.add(metric, ratio(float64(num), den), "share", den, note)
	}

	meanMS("server.decode_ms", "server.decode")
	meanMS("server.encode_ms", "server.encode")
	meanMS("malsched.fingerprint_ms", "malsched.fingerprint")
	meanMS("malsched.structure_fingerprint_ms", "malsched.structure_fingerprint")
	meanMS("server.handler_ms", "server.handler")
	h := get("server.handler")
	perCall("server.handler_allocs", h.counts["allocs"], h.calls, "heap allocations per handler call")
	res.add("server.transport_ms", mean(transport), "ms", len(transport), "loopback round trip minus in-memory handler time")
	res.add("client.late_p90_ms", late90, "ms", lateN, "p90 of how late the open loop sent")
	meanMS("client.prep_ms", "client.prep")
	share("server.hit_share", all.hits, all.attempted, "cache hits among answered requests")
	share("server.delta_warm_share", all.warm, all.deltas, "warm answers among delta requests")
	meanMS("malsched.validate_ms", "malsched.validate")
	meanMS("prep.reduce_ms", "prep.reduce")
	meanMS("allot.phase1_lazy_ms", "allot.phase1.lazy")
	meanMS("allot.phase1_warm_ms", "allot.phase1.warm")
	meanMS("allot.phase1_mincut_ms", "allot.phase1.mincut")
	lazy, warm, mc := get("allot.phase1.lazy"), get("allot.phase1.warm"), get("allot.phase1.mincut")
	simplex := lazy.calls + warm.calls
	perCall("lp.cuts", lazy.counts["cuts"]+warm.counts["cuts"], simplex, "lazy cuts per simplex phase-1 solve")
	perCall("lp.rounds", lazy.counts["rounds"]+warm.counts["rounds"], simplex, "separation rounds per simplex phase-1 solve")
	perCall("flow.breakpoints", mc.counts["cuts"], mc.calls, "parametric breakpoints per min-cut solve")
	perCall("flow.augments", mc.counts["rounds"], mc.calls, "flow augmentations per min-cut solve")
	share("allot.mincut_share", mc.calls, simplex+mc.calls+get("allot.phase1.other").calls, "phase-1 solves on the min-cut route")
	meanMS("allot.round_ms", "allot.round")
	meanMS("listsched.list_ms", "listsched.list")
	meanMS("schedule.verify_ms", "schedule.verify")
	meanMS("core.solve_ms", "core.solve")
	cs := get("core.solve")
	perCall("core.solve_allocs", cs.counts["allocs"], cs.calls, "heap allocations per core.SolveWith")
	stageTotal := 0.0
	for _, name := range stageNames {
		stageTotal += get(name).total
	}
	coverage := 0.0
	if cs.total > 0 {
		coverage = stageTotal / cs.total
	}
	res.add("core.stage_coverage", coverage, "share", cs.calls, "sum of stage spans / core.solve")
	meanMS("engine.queue_wait_ms", "engine.queue_wait")
	res.add("engine.busy_share", busy, "share", get("engine.job").calls, "worker busy time / (workers x replay span)")

	res.table = append(res.table, fmt.Sprintf("  %-34s %6s %12s %12s", "span", "calls", "mean_ms", "self_ms"))
	for _, name := range sortedKeys(st) {
		s := st[name]
		res.table = append(res.table, fmt.Sprintf("  %-34s %6d %12.4f %12.4f", name, s.calls, s.total/float64(s.calls), s.self/float64(s.calls)))
	}
}

// requireCoverage fails the run when the stage spans miss more than a
// tenth of core.SolveWith: a stage of the pipeline is not traced.
func requireCoverage(res *result) {
	for _, m := range res.metrics {
		if m.name == "core.stage_coverage" && m.value < 0.9 {
			res.problems = append(res.problems, fmt.Sprintf("core.stage_coverage %.3f < 0.9: a solver stage is missing from the trace", m.value))
		}
	}
}

func finishTrace(res *result, rec *recorder, seed int64) error {
	path, err := rec.write(res.workload, seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.info = append(res.info, fmt.Sprintf("%d spans written to %s", len(rec.spans), path))
	return nil
}
