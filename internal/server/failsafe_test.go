package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"malsched"
	"malsched/internal/engine"
	"malsched/internal/flow"
	"malsched/internal/gen"
	"malsched/internal/lp"
)

// generatedInstance builds a layered instance with roughly n tasks on m
// machines (n is rounded to the layer grid).
func generatedInstance(t *testing.T, n, m int) *malsched.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(m)))
	g := gen.Layered((n+7)/8, 8, 2, rng)
	in := &malsched.Instance{M: m, Tasks: gen.Tasks(gen.FamilyMixed, g.N(), m, rng)}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(v) {
			in.Edges = append(in.Edges, [2]int{v, w})
		}
	}
	return in
}

// withFault installs a fault hook for the duration of the test. The hooks
// are package globals, so tests using them must not run in parallel (none
// in this package do).
func withLUFault(t *testing.T, fn func() bool) {
	t.Helper()
	lp.FaultLUFactor = fn
	t.Cleanup(func() { lp.FaultLUFactor = nil })
}

func withSweepFault(t *testing.T, fn func() bool) {
	t.Helper()
	flow.FaultSweep = fn
	t.Cleanup(func() { flow.FaultSweep = nil })
}

func withSlowSolve(t *testing.T, d time.Duration) {
	t.Helper()
	engine.FaultSlowSolve = func() time.Duration { return d }
	t.Cleanup(func() { engine.FaultSlowSolve = nil })
}

// A sparse-simplex failure on the serving shape (96 tasks x 16 machines)
// must fall back to the min-cut sweep, which factors no basis: same
// paper-tier answer, labeled degraded, never a 500 and never greedy.
func TestDegradeDenseRungOnLUFailure(t *testing.T) {
	withLUFault(t, func() bool { return true })
	_, ts := newTestServer(t, Config{})
	in := generatedInstance(t, 96, 16)

	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	var out SolveResponseV2
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.DegradedReason != "singular-basis" {
		t.Fatalf("degraded=%v reason=%q, want true/singular-basis: %s", out.Degraded, out.DegradedReason, data)
	}
	if out.Algo != "paper" || out.Tier != "paper" || out.Formulation != "mincut" {
		t.Fatalf("engine rung should answer paper tier from mincut, got algo=%s tier=%s formulation=%s",
			out.Algo, out.Tier, out.Formulation)
	}
	if out.Makespan <= 0 {
		t.Fatalf("degraded answer has no makespan: %s", data)
	}
	if got := metrics(t, ts)["degrade_engine"]; got != 1 {
		t.Fatalf("degrade_engine metric = %v, want 1", got)
	}
}

// With both engines failing the ladder lands on greedy; the answer must
// say so (algo greedy, degraded label) rather than pretend.
func TestDegradeGreedyRungOnLargeInstance(t *testing.T) {
	withLUFault(t, func() bool { return true })
	withSweepFault(t, func() bool { return true })
	s, ts := newTestServer(t, Config{})
	in := generatedInstance(t, 168, 8)

	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	var out SolveResponseV2
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.Algo != "greedy" || out.Tier != "greedy" {
		t.Fatalf("want degraded greedy answer, got degraded=%v algo=%s tier=%s", out.Degraded, out.Algo, out.Tier)
	}
	if got := metrics(t, ts)["degrade_greedy"]; got != 1 {
		t.Fatalf("degrade_greedy metric = %v, want 1", got)
	}

	// The degraded answer must not pollute the exact paper key: once the
	// faults clear, the same pinned request re-solves and comes back
	// undegraded (a cache hit here would mean the greedy fallback had
	// been stored under the paper algorithm's key).
	lp.FaultLUFactor = nil
	flow.FaultSweep = nil
	resp, data = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault status %d: %s", resp.StatusCode, data)
	}
	var clean SolveResponseV2
	if err := json.Unmarshal(data, &clean); err != nil {
		t.Fatal(err)
	}
	if clean.Degraded || clean.Algo != "paper" {
		t.Fatalf("post-fault answer still degraded: %s", data)
	}
	_ = s
}

// The ladder runs inside the primary solve's flight: identical requests
// that meet in one failing flight share one primary solve and one
// fallback. A fallback never lands under the flight's exact key, so a
// later identical request falls back again, while a routed repeat reads
// it from the quality slot as an ordinary paper-tier hit.
func TestDegradeRunsOncePerFlight(t *testing.T) {
	withLUFault(t, func() bool { return true })
	withSlowSolve(t, 100*time.Millisecond)
	_, ts := newTestServer(t, Config{})
	in := generatedInstance(t, 96, 16)
	pinned := SolveRequestV2{Instance: in, Algo: "paper", Formulation: "lazy"}
	body, err := json.Marshal(pinned)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	outs := make([]SolveResponseV2, clients)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			resp, err := http.Post(ts.URL+"/v2/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			if err := json.Unmarshal(data, &outs[i]); err != nil {
				t.Errorf("client %d: %v: %s", i, err, data)
			}
		}(i)
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	cache := map[string]int{}
	for i, out := range outs {
		cache[out.Cache]++
		if !out.Degraded || out.DegradedReason != "singular-basis" ||
			out.Tier != "paper" || out.Formulation != "mincut" {
			t.Errorf("client %d: degraded=%v reason=%q tier=%s formulation=%s, want a degraded paper answer from mincut labeled singular-basis",
				i, out.Degraded, out.DegradedReason, out.Tier, out.Formulation)
		}
	}
	if cache["miss"] != 1 || cache["shared"] != clients-1 {
		t.Errorf("cache outcomes %v, want 1 miss and %d shared", cache, clients-1)
	}
	m := metrics(t, ts)
	if m["degrade_attempts"] != 1 || m["solves_paper"] != 1 {
		t.Fatalf("degrade_attempts=%v solves_paper=%v, want 1 and 1", m["degrade_attempts"], m["solves_paper"])
	}

	// A repeat of the pinned request finds no exact entry, re-runs the
	// failing primary and falls back again.
	resp, data := postJSON(t, ts.URL+"/v2/solve", pinned)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", resp.StatusCode, data)
	}
	if out := decodeSolveV2(t, data); !out.Degraded || out.Cache != "miss" {
		t.Errorf("repeat: degraded=%v cache=%s, want a degraded miss", out.Degraded, out.Cache)
	}
	if got := metrics(t, ts)["degrade_attempts"]; got != 2 {
		t.Errorf("degrade_attempts after the repeat = %v, want 2", got)
	}

	// A routed request for the same slot is satisfied by the fallback at
	// its tier, without the label: the label belongs to the flight.
	resp, data = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Formulation: "lazy"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed repeat: status %d: %s", resp.StatusCode, data)
	}
	out := decodeSolveV2(t, data)
	if out.Cache != "hit" || out.Degraded || out.DegradedReason != "" || out.Tier != "paper" {
		t.Errorf("routed repeat: cache=%s degraded=%v reason=%q tier=%s, want an undegraded paper-tier hit",
			out.Cache, out.Degraded, out.DegradedReason, out.Tier)
	}
	if got := metrics(t, ts)["degrade_attempts"]; got != 2 {
		t.Errorf("degrade_attempts after the routed repeat = %v, want 2", got)
	}
}

// A stalled sweep on a mincut-pinned request is re-solved on the lazy
// simplex: the paper tier, labeled with the sweep's failure class.
func TestDegradeEngineRungLazyAfterSweepStall(t *testing.T) {
	withSweepFault(t, func() bool { return true })
	_, ts := newTestServer(t, Config{})
	in := generatedInstance(t, 96, 16)

	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper", Formulation: "mincut"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	out := decodeSolveV2(t, data)
	if !out.Degraded || out.DegradedReason != "iteration-limit" {
		t.Fatalf("degraded=%v reason=%q, want true/iteration-limit: %s", out.Degraded, out.DegradedReason, data)
	}
	if out.Algo != "paper" || out.Tier != "paper" || out.Formulation != "lazy" {
		t.Fatalf("want paper tier from lazy, got algo=%s tier=%s formulation=%s", out.Algo, out.Tier, out.Formulation)
	}
	if got := metrics(t, ts)["degrade_engine"]; got != 1 {
		t.Fatalf("degrade_engine metric = %v, want 1", got)
	}
}

// The engine rung runs only when the router's estimate fits what is left
// of the request's budget. A deadline well under the estimate sends the
// same stalled request to greedy instead. The deadline sits above the
// 5 ms shed floor, so only a queue wait past it could shed.
func TestDegradeEngineRungRespectsDeadline(t *testing.T) {
	withSweepFault(t, func() bool { return true })
	_, ts := newTestServer(t, Config{})
	in := generatedInstance(t, 96, 16)
	const deadlineMS = 10
	if est := paperEstimate(len(in.Tasks), in.M); est <= deadlineMS*time.Millisecond {
		t.Fatalf("paper estimate %v fits the %d ms deadline; the test needs it not to", est, deadlineMS)
	}

	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{
		Instance: in, Algo: "paper", Formulation: "mincut", DeadlineMS: deadlineMS,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	out := decodeSolveV2(t, data)
	if !out.Degraded || out.DegradedReason != "iteration-limit" || out.Algo != "greedy" || out.Tier != "greedy" {
		t.Fatalf("want a degraded greedy answer labeled iteration-limit, got degraded=%v reason=%q algo=%s tier=%s",
			out.Degraded, out.DegradedReason, out.Algo, out.Tier)
	}
	m := metrics(t, ts)
	if m["degrade_engine"] != 0 || m["degrade_greedy"] != 1 {
		t.Fatalf("degrade_engine=%v degrade_greedy=%v, want 0 and 1", m["degrade_engine"], m["degrade_greedy"])
	}
}

// Inside the min-cut window the router's estimate does not price a lazy
// re-solve (the record has lazy there at up to 5.5x it), so a stalled
// sweep on an auto-routed request goes straight to greedy, even with a
// deadline the lazy estimate would fit.
func TestDegradeMincutWindowSkipsEngineRung(t *testing.T) {
	withSweepFault(t, func() bool { return true })
	_, ts := newTestServer(t, Config{})
	in := generatedInstance(t, 200, 64)
	if !inMincutWindow(len(in.Tasks), in.M) {
		t.Fatalf("n=%d m=%d is outside the min-cut window; the test needs it inside", len(in.Tasks), in.M)
	}

	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, DeadlineMS: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	out := decodeSolveV2(t, data)
	if !out.Routed || !strings.Contains(out.RouteReason, "within deadline") {
		t.Fatalf("want the router to pick paper within the deadline, got routed=%v reason=%q", out.Routed, out.RouteReason)
	}
	if !out.Degraded || out.DegradedReason != "iteration-limit" || out.Algo != "greedy" || out.Tier != "greedy" {
		t.Fatalf("want a degraded greedy answer labeled iteration-limit, got degraded=%v reason=%q algo=%s tier=%s",
			out.Degraded, out.DegradedReason, out.Algo, out.Tier)
	}
	m := metrics(t, ts)
	if m["degrade_engine"] != 0 || m["degrade_greedy"] != 1 {
		t.Fatalf("degrade_engine=%v degrade_greedy=%v, want 0 and 1", m["degrade_engine"], m["degrade_greedy"])
	}
}

// A once-only LU failure must never surface as a 500: either the solver's
// own repair machinery absorbs it, or the ladder serves a labeled degraded
// answer. Either way the client gets a 200.
func TestTransientLUFailureNeverFiveHundred(t *testing.T) {
	var mu sync.Mutex
	fired := false
	withLUFault(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if fired {
			return false
		}
		fired = true
		return true
	})
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
}

func TestReadyzFlipsDuringDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", got)
	}
	s.SetDraining(true)
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", got)
	}
	s.SetDraining(false)
	if got := get(); got != http.StatusOK {
		t.Fatalf("/readyz after drain cleared: %d", got)
	}
	// /healthz answers 200 regardless: liveness is a different question.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
}

// With the pending queue full, additional solve-needing requests get 429 +
// Retry-After instead of queueing without bound.
func TestAdmissionQueueFullSheds429(t *testing.T) {
	withSlowSolve(t, 300*time.Millisecond)
	_, ts := newTestServer(t, Config{Workers: 1, MaxPending: 1})
	in := loadTestdata(t, "chain_n10_m4.json")

	// Occupy the only pending slot (and the only worker).
	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, NoCache: true})
	}()
	time.Sleep(100 * time.Millisecond) // the slot is held during the slow solve

	resp, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, NoCache: true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	<-done
	if got := metrics(t, ts)["shed_queue_full"]; got < 1 {
		t.Fatalf("shed_queue_full metric = %v, want >= 1", got)
	}
}

// A singleflight waiter whose leader was cancelled retries; if its own
// deadline budget burned away while it waited, the retry sheds it (503 +
// Retry-After) instead of solving for a client that has given up.
func TestDeadlineShedAfterWaitingOutALeader(t *testing.T) {
	withSlowSolve(t, 300*time.Millisecond)
	_, ts := newTestServer(t, Config{Workers: 1})
	in := loadTestdata(t, "chain_n10_m4.json")
	body, err := json.Marshal(SolveRequest{Instance: in, Algo: "paper"})
	if err != nil {
		t.Fatal(err)
	}

	// Leader: same exact key, cancelled mid-solve.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, _ := http.NewRequestWithContext(leaderCtx, "POST", ts.URL+"/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		http.DefaultClient.Do(req) // error expected: we cancel it
	}()
	time.Sleep(50 * time.Millisecond) // leader holds the flight
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancelLeader()
	}()

	// Waiter: identical request, 1ms app-level deadline. It waits out the
	// leader (~300ms), retries, and the retry sheds it.
	req := SolveRequest{Instance: in, Algo: "paper", DeadlineMS: 1}
	resp, data := postJSON(t, ts.URL+"/v1/solve", req)
	<-leaderDone
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 shed: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed 503 without Retry-After header")
	}
	if got := metrics(t, ts)["shed_deadline"]; got < 1 {
		t.Fatalf("shed_deadline metric = %v, want >= 1", got)
	}
}

// solveError's status mapping, exercised directly: every error class the
// serving core can return maps to its contractual status code and headers.
func TestSolveErrorStatusMapping(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	cases := []struct {
		err        error
		status     int
		retryAfter bool
	}{
		{badRequestf("nope"), http.StatusBadRequest, false},
		{errOverloaded, http.StatusTooManyRequests, true},
		{errShedDeadline, http.StatusServiceUnavailable, true},
		{errJobsBusy, http.StatusServiceUnavailable, true},
		{context.Canceled, statusClientClosedRequest, false},
		{fmt.Errorf("wrapped: %w", context.Canceled), statusClientClosedRequest, false},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{errors.New("mystery"), http.StatusInternalServerError, false},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		s.solveError(w, tc.err)
		if w.Code != tc.status {
			t.Errorf("%v: status %d, want %d", tc.err, w.Code, tc.status)
		}
		if got := w.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("%v: Retry-After present=%v, want %v", tc.err, got, tc.retryAfter)
		}
	}
}

// A request whose context is already dead never consumes a worker and
// surfaces the context's own error.
func TestServeCancelledContext(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.serve(ctx, &SolveRequestV2{Instance: in, Algo: "paper", NoCache: true}, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
