package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"malsched"
	"malsched/internal/gen"
	"malsched/internal/server"
)

// LB0 must never exceed the optimum, or a correct answer would fail the
// answer check.
func TestLB0AtMostOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n, m := 2+rng.Intn(6), 1+rng.Intn(3)
		if trial%10 == 0 {
			n, m = 8, 2
		}
		in := fromDAG(gen.ErdosDAG(n, 0.3, rng), m, rng)
		opt, err := malsched.Optimal(in)
		if err != nil {
			t.Fatal(err)
		}
		if lb := lb0(in); lb > opt*(1+eps) {
			t.Fatalf("trial %d (n=%d m=%d): LB0 %v exceeds the optimum %v", trial, n, m, lb, opt)
		}
	}
}

// stream renders the first requests of every workload's input stream.
func stream(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	bases := make([]*malsched.Instance, deltaBases)
	fps := make([]string, deltaBases)
	for b := range bases {
		bases[b] = missBase(seed, b)
		fps[b] = bases[b].Fingerprint()
	}
	for i := 0; i < 12; i++ {
		r, err := missRequest(seed, i, bases, fps, false)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(r.body)
		buf.WriteByte(byte(hitPick(seed, i, hitKeys)))
	}
	enc := json.NewEncoder(&buf)
	for _, v := range []any{hitKey(seed, 0), batchInstance(seed, streamBatch, 0), batchInstance(seed, streamBatchWarm, 1), arrivals(seed, 40, 5)} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b := stream(t, 7), stream(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if bytes.Equal(a, stream(t, 8)) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
}

func TestMissMixIsExactPerBlock(t *testing.T) {
	count := map[reqClass]int{}
	for i := 0; i < 400; i++ {
		count[missClass(5, i)]++
	}
	if count[classFresh96] != 200 || count[classDelta] != 100 || count[classFresh500] != 100 {
		t.Fatalf("mix %v, want 2:1:1", count)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, err := percentile(xs, 90); err != nil || p != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:20], 50); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{20, 34, 99, 100, 1000} {
		if _, err := percentile(xs[:min(n, len(xs))], tailPercentile(min(n, len(xs)))); err != nil {
			t.Fatalf("tail percentile of %d samples refused: %v", n, err)
		}
	}
}

func TestCertificateCheck(t *testing.T) {
	in := hitKey(1, 0)
	res, err := malsched.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	lb := lb0(in)
	if err := checkCertificate(lb, res.LowerBound, res.Makespan, res.ProvenRatio); err != nil {
		t.Fatalf("a correct answer failed: %v", err)
	}
	for _, mk := range []float64{res.LowerBound / 2, res.ProvenRatio * res.LowerBound * 1.01} {
		if checkCertificate(lb, res.LowerBound, mk, res.ProvenRatio) == nil {
			t.Errorf("makespan %v passed (lower bound %v, ratio %v)", mk, res.LowerBound, res.ProvenRatio)
		}
	}
	if checkCertificate(lb, lb/2, res.Makespan, res.ProvenRatio) == nil {
		t.Error("a lower bound below LB0 passed")
	}
	bad := *res
	bad.Makespan *= 10
	if _, err := checkBatchResult(in, &bad); err == nil {
		t.Error("a batch answer with a wrong makespan passed")
	}
}

// runFails runs serve_hit briefly under cfg and reports whether the run
// failed, as main would exit non-zero.
func runFails(t *testing.T, cfg runConfig) bool {
	t.Helper()
	cfg.seed, cfg.seconds = 1, 0.6
	res, err := runServe(serveHit, cfg)
	if err != nil {
		t.Logf("run error: %v", err)
		return true
	}
	t.Logf("attempted %d failed %d problems %q", res.attempted, res.failed, res.problems)
	return !res.correct()
}

func TestServeHitRunPasses(t *testing.T) {
	if runFails(t, runConfig{}) {
		t.Fatal("a run of the unmodified server failed")
	}
}

func TestForcedMissFailsServeHit(t *testing.T) {
	// A one-entry cache evicts every key before it is asked for again.
	if !runFails(t, runConfig{server: server.Config{CacheEntries: 1}}) {
		t.Fatal("serve_hit passed although its requests missed the cache")
	}
}

func TestWrongMakespanFailsTheRun(t *testing.T) {
	// Cache hits, i.e. the timed requests, come back with a makespan
	// beyond the proven ratio.
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var ans server.SolveResponseV2
			if json.Unmarshal(rec.Body.Bytes(), &ans) == nil && ans.Cache == "hit" {
				ans.Makespan *= 4
				raw, _ := json.Marshal(ans)
				rec.Body = bytes.NewBuffer(raw)
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
	}
	if !runFails(t, runConfig{wrap: wrap}) {
		t.Fatal("serve_hit passed although its answers carried a wrong makespan")
	}
}

func TestUnansweredRequestFailsTheRun(t *testing.T) {
	defer func(d time.Duration) { requestTimeout = d }(requestTimeout)
	requestTimeout = 2 * time.Second
	block := make(chan struct{})
	defer close(block)
	// The first timed request after priming never gets an answer, as if
	// its solve never returned.
	wrap := func(h http.Handler) http.Handler {
		var n atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1) == hitKeys+1 {
				<-block
			}
			h.ServeHTTP(w, r)
		})
	}
	res, err := runServe(serveHit, runConfig{seed: 1, seconds: 0.6, wrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || len(res.problems) == 0 || !strings.Contains(res.problems[0], "no answer within") {
		t.Fatalf("a request without an answer did not fail the run: failed %d problems %q", res.failed, res.problems)
	}
}
