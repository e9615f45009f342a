package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"malsched"
	"malsched/internal/server"
)

// serveSpec describes a serving workload.
type serveSpec struct {
	name string
	// rate is the traced run's open-loop Poisson arrival rate per second:
	// about a third of the closed-loop throughput on one processor, so the
	// open loop runs below saturation.
	rate float64
	hit  bool
}

var (
	serveHit  = serveSpec{name: "serve_hit", rate: 300, hit: true}
	serveMiss = serveSpec{name: "serve_miss", rate: 20}
)

const (
	// conns is the client's connection count. With one connection and one
	// Go processor (serveProcs), client, server and the server's
	// one-worker pool take turns on one thread, so a request's latency is
	// its own service time: no second request in flight, and no client
	// building the next body, competes with it for the CPUs, caches and
	// memory bus.
	conns = 1
	// serveProcs is GOMAXPROCS for the serving workloads: the client, the
	// server and its default one-worker pool share one processor.
	serveProcs = 1
	// hitKeys is the number of distinct instances serve_hit cycles over.
	hitKeys = 32
	// lookAhead bounds how many requests the open loop builds ahead of
	// their due time.
	lookAhead = 8
	// eps is the relative slack of the answer checks.
	eps = 1e-9
)

// requestTimeout is how long the client waits for an answer. Healthy
// requests take well under a second; one without an answer by then
// fails, so a solve that never returns fails its run instead of hanging
// it. Tests lower it.
var requestTimeout = 10 * time.Second

// stand is one set-up serving stack: the server behind a loopback
// listener, the client driving it, and what set-up primed.
type stand struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	keys   []primedKey          // serve_hit
	bases  []*malsched.Instance // serve_miss delta bases
	baseFP []string

	// timedOut is set when a request got no answer in time: its solve
	// may never return, and closing the server waits for every solve.
	timedOut atomic.Bool
}

type primedKey struct {
	inst   *malsched.Instance
	body   []byte
	lb0    float64
	answer *server.SolveResponseV2
}

// setUpServe starts a server and primes it. Nothing waits on a timer:
// the listener accepts as soon as Listen returns.
func setUpServe(spec serveSpec, cfg runConfig) (*stand, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stand{
		srv:    server.New(cfg.server),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v2/solve",
		client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
	}
	h := st.srv.Handler()
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	st.hs = &http.Server{Handler: h}
	go func() { st.served <- st.hs.Serve(ln) }()
	if spec.hit {
		err = st.primeKeys(cfg.seed)
	} else {
		err = st.primeBases(cfg.seed)
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	return st, nil
}

// close stops the stand. After a timed-out request it leaves the
// server's pool running, since closing it would wait for the stuck solve.
func (st *stand) close() {
	st.client.CloseIdleConnections()
	st.hs.Close()
	<-st.served
	if !st.timedOut.Load() {
		st.srv.Close()
	}
}

// parallel runs f(0..n-1) on conns goroutines and returns the first error.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && errs[c] == nil; i = int(next.Add(1)) - 1 {
				errs[c] = f(i)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (st *stand) primeKeys(seed int64) error {
	st.keys = make([]primedKey, hitKeys)
	return parallel(hitKeys, func(k int) error {
		in := hitKey(seed, k)
		body, err := json.Marshal(server.SolveRequestV2{Instance: in})
		if err != nil {
			return err
		}
		lb := lb0(in)
		status, raw, err := st.post(body)
		if err != nil {
			return err
		}
		ans, err := checkAnswer(status, raw, lb, "miss")
		if err != nil {
			return fmt.Errorf("key %d: %w", k, err)
		}
		st.keys[k] = primedKey{inst: in, body: body, lb0: lb, answer: ans}
		return nil
	})
}

func (st *stand) primeBases(seed int64) error {
	st.bases = make([]*malsched.Instance, deltaBases)
	st.baseFP = make([]string, deltaBases)
	return parallel(deltaBases, func(b int) error {
		in := missBase(seed, b)
		body, err := json.Marshal(server.SolveRequestV2{Instance: in})
		if err != nil {
			return err
		}
		status, raw, err := st.post(body)
		if err != nil {
			return err
		}
		ans, err := checkAnswer(status, raw, lb0(in), "miss")
		if err != nil {
			return fmt.Errorf("base %d: %w", b, err)
		}
		st.bases[b], st.baseFP[b] = in, ans.Fingerprint
		return nil
	})
}

func (st *stand) post(body []byte) (int, []byte, error) {
	resp, err := st.client.Post(st.url, "application/json", bytes.NewReader(body))
	if err, ok := err.(net.Error); ok && err.Timeout() {
		st.timedOut.Store(true)
		return 0, nil, fmt.Errorf("no answer within %v: %w", requestTimeout, err)
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// request builds request i of the workload.
func (st *stand) request(spec serveSpec, seed int64, i int, keep bool) (*request, error) {
	if spec.hit {
		k := hitPick(seed, i, len(st.keys))
		key := &st.keys[k]
		return &request{index: i, class: classHit, body: key.body, lb0: key.lb0, key: k, inst: key.inst, base: -1}, nil
	}
	return missRequest(seed, i, st.bases, st.baseFP, keep)
}

// checkAnswer decodes a /v2/solve response and checks it: a 200 with a
// paper-tier, non-degraded answer whose bounds satisfy
// LB0 <= lower_bound <= makespan <= proven_ratio * lower_bound, and the
// expected cache outcome when cache is not empty.
func checkAnswer(status int, raw []byte, lb float64, cache string) (*server.SolveResponseV2, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, raw)
	}
	var ans server.SolveResponseV2
	if err := json.Unmarshal(raw, &ans); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	if ans.Tier != "paper" || ans.Degraded {
		return &ans, fmt.Errorf("answer tier %q degraded=%v (%s), want an undegraded paper answer", ans.Tier, ans.Degraded, ans.DegradedReason)
	}
	if cache != "" && ans.Cache != cache {
		return &ans, fmt.Errorf("cache outcome %q, want %q", ans.Cache, cache)
	}
	return &ans, checkCertificate(lb, ans.LowerBound, ans.Makespan, ans.ProvenRatio)
}

// sameAnswer reports whether a cache hit returned the primed answer bit
// for bit (everything but the per-request cache label and elapsed time).
func sameAnswer(a, b *server.SolveResponseV2) bool {
	bits := math.Float64bits
	if bits(a.Makespan) != bits(b.Makespan) || bits(a.LowerBound) != bits(b.LowerBound) ||
		bits(a.Guarantee) != bits(b.Guarantee) || bits(a.ProvenRatio) != bits(b.ProvenRatio) ||
		bits(a.ColdMS) != bits(b.ColdMS) || len(a.Alloc) != len(b.Alloc) {
		return false
	}
	for j := range a.Alloc {
		if a.Alloc[j] != b.Alloc[j] {
			return false
		}
	}
	return a.Algo == b.Algo && a.Tier == b.Tier && a.Formulation == b.Formulation &&
		a.Fingerprint == b.Fingerprint && a.StructureFingerprint == b.StructureFingerprint
}

// cacheWant is the cache outcome every timed request of spec must have.
func cacheWant(spec serveSpec) string {
	if spec.hit {
		return "hit"
	}
	return "miss"
}

// outcome is one answered request.
type outcome struct {
	class reqClass
	err   error
	ratio float64 // makespan / LB0
	hit   bool
	warm  bool // delta request answered from the warm path
	ans   *server.SolveResponseV2
}

// exchange posts r and checks the answer.
func (st *stand) exchange(spec serveSpec, r *request) outcome {
	out := outcome{class: r.class}
	status, raw, err := st.post(r.body)
	if err != nil {
		out.err = fmt.Errorf("request %d (%s): %w", r.index, r.class, err)
		return out
	}
	want := cacheWant(spec)
	ans, err := checkAnswer(status, raw, r.lb0, "")
	if err != nil {
		err = fmt.Errorf("request %d (%s): %w", r.index, r.class, err)
	}
	if err == nil && ans.Cache != want {
		err = fmt.Errorf("request %d (%s): cache outcome %q on %s", r.index, r.class, ans.Cache, spec.name)
	}
	if err == nil && spec.hit && !sameAnswer(ans, st.keys[r.key].answer) {
		err = fmt.Errorf("request %d: hit on key %d differs from the primed answer", r.index, r.key)
	}
	if ans != nil {
		out.ans = ans
		out.ratio = ans.Makespan / r.lb0
		out.hit = ans.Cache == "hit"
		out.warm = ans.Delta == "warm"
	}
	out.err = err
	return out
}

// tally accumulates outcomes.
type tally struct {
	attempted, failed  int
	hits, deltas, warm int
	problems           []string
}

func (t *tally) add(o outcome) {
	t.attempted++
	if o.hit {
		t.hits++
	}
	if o.class == classDelta {
		t.deltas++
		if o.warm {
			t.warm++
		}
	}
	if o.err != nil {
		t.failed++
		if len(t.problems) < 5 {
			t.problems = append(t.problems, o.err.Error())
		}
	}
}

func (t *tally) merge(u *tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.hits += u.hits
	t.deltas += u.deltas
	t.warm += u.warm
	for _, p := range u.problems {
		if len(t.problems) < 5 {
			t.problems = append(t.problems, p)
		}
	}
}

// openResult is what one open-loop phase measured.
type openResult struct {
	latency []float64 // ms from due to answer, in answer order; +Inf for a failed request
	late    []float64 // ms from due to send
	tally   tally
}

// openLoop sends the requests first..first+len(due)-1 at their due times
// (seconds from the phase's start) over conns connections. A request due
// while every connection is busy waits for one, and that wait counts in
// its latency. Bodies are built at most lookAhead requests ahead. rec,
// when not nil, records a span per request.
func (st *stand) openLoop(spec serveSpec, seed int64, due []float64, first int, rec *recorder) (*openResult, error) {
	ready := make(chan *request, lookAhead)
	genErr := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		defer close(ready)
		for k := range due {
			r, err := st.request(spec, seed, first+k, false)
			if err != nil {
				genErr <- err
				return
			}
			select {
			case ready <- r:
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)

	type job struct {
		r   *request
		due time.Time
	}
	jobs := make(chan job)
	t0 := time.Now()
	res := &openResult{latency: make([]float64, 0, len(due)), late: make([]float64, 0, len(due))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				o := st.exchange(spec, j.r)
				done := time.Now()
				lat := ms(done.Sub(j.due))
				if o.err != nil {
					lat = math.Inf(1)
				}
				if rec != nil {
					root := rec.add("client.request", j.r.index, -1, j.due, done)
					rec.add("client.late", j.r.index, root, j.due, sent)
					rec.add("client.post", j.r.index, root, sent, done)
				}
				mu.Lock()
				res.latency = append(res.latency, lat)
				res.late = append(res.late, ms(sent.Sub(j.due)))
				res.tally.add(o)
				mu.Unlock()
			}
		}()
	}
	var err error
	for k := range due {
		r, ok := <-ready
		if !ok {
			err = <-genErr
			break
		}
		at := t0.Add(time.Duration(due[k] * float64(time.Second)))
		time.Sleep(time.Until(at))
		jobs <- job{r: r, due: at}
	}
	close(jobs)
	wg.Wait()
	return res, err
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	// rate is the sustained rate: answered requests per second in the
	// rateWindows windows of the span, at their sustainedPct-th percentile.
	rate float64
	// meanRate is the answered requests per second over the whole span.
	meanRate float64
	latency  []float64 // ms from send to answer, in answer order; +Inf for a failed request
	// ratios are makespan / LB0 of requests 0..fixedRequests-1, by index.
	ratios []float64
	// rssMB is VmHWM when fixedRequests requests had been answered.
	rssMB float64
	tally tally
}

// The closed loop's span is cut into rateWindows equal windows (2 s each
// in a 30 s run), and the reported rate is the sustainedPct-th percentile
// of the windows' rates: the rate held in all but the slowest tenth of the
// run. On a shared virtual machine the host runs this code up to twice as
// fast for a second or a few at a time; the sustained rate leaves those
// bursts out, where the mean rate and the median window count them.
const (
	rateWindows  = 15
	sustainedPct = 10
)

// fixedRequests is the fixed amount of work behind the serve workloads'
// makespan_ratio and peak_rss_mb. Every answered serve_miss request leaves
// an entry in the solution cache, so memory read after a fixed time would
// grow with throughput. The closed loop runs past its window until this
// many requests are answered.
const fixedRequests = 600

// closedLoop keeps conns connections busy for span seconds, and at least
// until fixedRequests requests are answered, each connection sending its
// next request as soon as the previous answer arrives.
func (st *stand) closedLoop(spec serveSpec, seed int64, span float64) (*closedResult, error) {
	var next, answered atomic.Int64
	start := time.Now()
	window := time.Duration(span / rateWindows * float64(time.Second))
	deadline := start.Add(rateWindows * window)
	res := &closedResult{ratios: make([]float64, fixedRequests)}
	var counts [rateWindows]int
	var mu sync.Mutex
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var t tally
			var done [rateWindows]int
			for time.Now().Before(deadline) || answered.Load() < fixedRequests {
				r, err := st.request(spec, seed, int(next.Add(1))-1, false)
				if err != nil {
					errs[c] = err
					break
				}
				sent := time.Now()
				o := st.exchange(spec, r)
				now := time.Now()
				if answered.Add(1) == fixedRequests {
					res.rssMB = peakRSSMB()
				}
				t.add(o)
				lat := ms(now.Sub(sent))
				if o.err != nil {
					lat = math.Inf(1)
				} else if w := int(now.Sub(start) / window); w < rateWindows {
					done[w]++
				}
				mu.Lock()
				res.latency = append(res.latency, lat)
				if r.index < fixedRequests {
					res.ratios[r.index] = o.ratio
				}
				mu.Unlock()
			}
			mu.Lock()
			defer mu.Unlock()
			for w := range done {
				counts[w] += done[w]
			}
			res.tally.merge(&t)
		}(c)
	}
	wg.Wait()
	rates := make([]float64, rateWindows)
	total := 0
	for w, n := range counts {
		rates[w] = float64(n) / window.Seconds()
		total += n
	}
	res.meanRate = float64(total) / (rateWindows * window).Seconds()
	var err error
	if res.rate, err = percentile(rates, sustainedPct); err != nil {
		return nil, err
	}
	return res, errors.Join(errs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveSetupsBefore set-ups run before the window and serveSetupsAfter
// after it; setup_s is the median of all of them, so it samples the host
// at both ends of the run. The last set-up before the window serves the
// measurement.
const (
	serveSetupsBefore = 4
	serveSetupsAfter  = 3
)

// timeServeSetUps sets spec up n times, appending each set-up's seconds to
// setups, and returns the last stand; the others are closed.
func timeServeSetUps(spec serveSpec, cfg runConfig, n int, setups *[]float64) (*stand, error) {
	var st *stand
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = setUpServe(spec, cfg); err != nil {
			return nil, err
		}
		*setups = append(*setups, time.Since(t0).Seconds())
	}
	return st, nil
}

// runServe is the end-to-end run of a serving workload: set-up, then a
// closed loop over the whole window, then more set-ups. The open loop runs
// only in the traced run: on a shared virtual machine its latency is
// mostly the time the host takes to wake idle CPUs, which moved its median
// by a factor of up to six between runs of identical code.
func runServe(spec serveSpec, cfg runConfig) (*result, error) {
	var setups []float64
	st, err := timeServeSetUps(spec, cfg, serveSetupsBefore, &setups)
	if err != nil {
		return nil, err
	}
	closed, err := st.closedLoop(spec, cfg.seed, cfg.seconds)
	st.close()
	if err != nil {
		return nil, err
	}
	if st, err = timeServeSetUps(spec, cfg, serveSetupsAfter, &setups); err != nil {
		return nil, err
	}
	st.close()

	res := &result{workload: spec.name}
	all := closed.tally
	res.attempted, res.failed, res.problems = all.attempted, all.failed, all.problems
	if err := hitShareMatches(spec, all.hits, all.attempted); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	n := len(closed.latency)
	p50, err := percentile(closed.latency, 50)
	if err != nil {
		return nil, fmt.Errorf("closed-loop latency: %w", err)
	}
	p90, err := percentile(closed.latency, 90)
	if err != nil {
		return nil, fmt.Errorf("closed-loop latency: %w", err)
	}
	res.add("latency_tail_ms", p90, "ms", n, "p90 of the closed loop, send to answer")
	res.add("throughput_per_s", closed.rate, "1/s", closed.tally.attempted,
		fmt.Sprintf("closed loop, %d connection, p%d of %d windows' rates", conns, sustainedPct, rateWindows))
	res.add("makespan_ratio", mean(closed.ratios), "ratio", len(closed.ratios), fmt.Sprintf("mean makespan/LB0 of requests 0..%d", fixedRequests-1))
	res.add("peak_rss_mb", closed.rssMB, "MB", 1, fmt.Sprintf("VmHWM once %d requests were answered", fixedRequests))
	res.add("setup_s", median(setups), "s", len(setups), fmt.Sprintf("median of %d set-ups before and %d after the window", serveSetupsBefore, serveSetupsAfter))
	res.info = append(res.info,
		fmt.Sprintf("latency p50 %.4f ms, mean %.4f ms (n=%d)", p50, mean(closed.latency), n),
		fmt.Sprintf("mean rate over the window: %.2f/s", closed.meanRate),
		fmt.Sprintf("first set-up of the process: %.4f s", setups[0]),
		fmt.Sprintf("fail_share = %.4f (%d of %d)", float64(all.failed)/float64(all.attempted), all.failed, all.attempted),
		fmt.Sprintf("hit_share = %.4f (%d of %d)", float64(all.hits)/float64(all.attempted), all.hits, all.attempted))
	return res, nil
}

// hitShareMatches fails a run whose cache behaviour contradicts its
// workload: every serve_hit answer must be a hit, no serve_miss answer.
func hitShareMatches(spec serveSpec, hits, attempted int) error {
	if spec.hit && hits != attempted {
		return fmt.Errorf("%s: hit share %d/%d, want all hits", spec.name, hits, attempted)
	}
	if !spec.hit && hits != 0 {
		return fmt.Errorf("%s: hit share %d/%d, want no hits", spec.name, hits, attempted)
	}
	return nil
}
