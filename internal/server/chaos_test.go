package server

// Deterministic chaos suite: a loadgen-shaped concurrent workload runs
// against a server with every fault point armed (seeded LU-factor
// failures, flow-sweep stalls, cache-shard errors, slow solves, background
// lane drops). The invariants under fire:
//
//   - the process never crashes and no request sees a 500: recoverable
//     numerical failures ride the degradation ladder, overload sheds with
//     429/503 + Retry-After;
//   - every answer served off the primary path is labeled degraded;
//   - the per-identity quality slot is tier-monotonic: a probe never
//     reports a lower tier than an earlier probe of the same fingerprint;
//   - no accepted job is lost: every 202'd job reaches a terminal state
//     (done, failed, or finished-then-evicted).
//
// The fault pattern is a pure function of -chaos.seed, so a failure
// reproduces exactly. `make chaos` runs this at 500 concurrent clients
// under -race; the default here is sized for the ordinary test suite.

import (
	"encoding/json"
	"flag"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"malsched"
	"malsched/internal/engine"
	"malsched/internal/faultinject"
	"malsched/internal/flow"
	"malsched/internal/lp"
)

var (
	chaosClients  = flag.Int("chaos.clients", 40, "concurrent clients in TestChaos")
	chaosRequests = flag.Int("chaos.requests", 4, "requests per chaos client")
	chaosSeed     = flag.Int64("chaos.seed", 1, "fault-injection seed for TestChaos")
)

func TestChaos(t *testing.T) {
	inj := faultinject.New(*chaosSeed).
		Set(faultinject.LUFactorFail, 0.05).
		Set(faultinject.CacheShardError, 0.02).
		Set(faultinject.SlowSolve, 0.02).
		Set(faultinject.BGLaneDrop, 0.10).
		// Consulted once per sweep event, so even a low rate stalls a
		// fair share of the mincut-pinned solves below.
		Set(faultinject.FlowSweepStall, 0.01)

	lp.FaultLUFactor = inj.Hook(faultinject.LUFactorFail)
	flow.FaultSweep = inj.Hook(faultinject.FlowSweepStall)
	FaultCacheShard = inj.Hook(faultinject.CacheShardError)
	slow := inj.Hook(faultinject.SlowSolve)
	engine.FaultSlowSolve = func() time.Duration {
		if slow() {
			return 2 * time.Millisecond
		}
		return 0
	}
	engine.FaultBGDrop = inj.Hook(faultinject.BGLaneDrop)
	t.Cleanup(func() {
		lp.FaultLUFactor = nil
		flow.FaultSweep = nil
		FaultCacheShard = nil
		engine.FaultSlowSolve = nil
		engine.FaultBGDrop = nil
	})

	_, ts := newTestServer(t, Config{Workers: 4, MaxPending: 64, MaxJobs: 64})

	// A small pool of distinct instances, up to the 96x16 serving shape
	// and a 168-task one. The three generated ones are wide, so the auto
	// route sends them to the sweep; the chain stays on the simplex. The
	// ladder's engine rung answers most failures; greedy takes those
	// whose rescue fails too.
	instances := []*malsched.Instance{
		loadTestdata(t, "chain_n10_m4.json"),
		loadTestdata(t, "erdos_n16_m16.json"),
		generatedInstance(t, 64, 8),
		generatedInstance(t, 96, 16),
		generatedInstance(t, 168, 8),
	}

	var (
		mu        sync.Mutex
		jobs      []string           // accepted job URLs
		bestTier  = map[string]int{} // fingerprint -> highest tier seen via probes
		probeSer  = map[string]*sync.Mutex{}
		responses int
		degraded  int
		shed      int
	)
	rank := map[string]int{"greedy": 1, "paper": 2}

	// Probes of the same fingerprint are serialized (per-fp lock held
	// across the GET): the quality slot is tier-monotonic on the server,
	// but two overlapping probes can read it in one order and report in
	// the other, and that observation-order race would look like a
	// regression. Serial probes observe the slot in read order, so the
	// monotonicity check below is exact. Distinct fingerprints still
	// probe concurrently.
	probe := func(tb testing.TB, fp string) {
		if fp == "" {
			return
		}
		mu.Lock()
		ser := probeSer[fp]
		if ser == nil {
			ser = &sync.Mutex{}
			probeSer[fp] = ser
		}
		mu.Unlock()
		ser.Lock()
		defer ser.Unlock()
		resp, err := http.Get(ts.URL + "/v2/solutions/" + fp)
		if err != nil {
			tb.Errorf("probe: %v", err)
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return // not cached yet, or a cache-shard fault ate the read
		}
		if resp.StatusCode != http.StatusOK {
			tb.Errorf("probe %s: status %d: %s", fp, resp.StatusCode, data)
			return
		}
		var p SolutionProbe
		if err := json.Unmarshal(data, &p); err != nil {
			tb.Errorf("probe %s: %v", fp, err)
			return
		}
		r, ok := rank[p.Tier]
		if !ok {
			tb.Errorf("probe %s: unknown tier %q", fp, p.Tier)
			return
		}
		mu.Lock()
		if prev := bestTier[fp]; r < prev {
			tb.Errorf("tier regression for %s: probe saw %q after tier rank %d", fp, p.Tier, prev)
		} else {
			bestTier[fp] = r
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for c := 0; c < *chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*7919 + *chaosSeed))
			for i := 0; i < *chaosRequests; i++ {
				in := instances[rng.Intn(len(instances))]
				req := SolveRequestV2{Instance: in}
				pinnedPaper := false
				switch rng.Intn(6) {
				case 0:
					req.Algo = "paper"
					pinnedPaper = true
				case 1:
					req.Algo = "greedy"
				case 2:
					req.DeadlineMS = float64(1 + rng.Intn(50))
				case 3:
					// Pin the parametric min-cut formulation so the armed
					// flow-sweep fault point actually sits on the solve
					// path; its stalls must ride the ladder like any other
					// recoverable failure.
					req.Formulation = "mincut"
				case 4:
					// Pin the lazy simplex for the same reason: the
					// generated instances are wide enough for the auto
					// route to run the sweep, so without this slice only
					// the two testdata instances would reach the armed
					// LU-factor fault point.
					req.Formulation = "lazy"
				}
				async := rng.Intn(4) == 0

				url := ts.URL + "/v2/solve"
				if async {
					url = ts.URL + "/v2/jobs"
				}
				resp, data := postJSON(t, url, req)
				switch resp.StatusCode {
				case http.StatusOK:
					var out SolveResponseV2
					if err := json.Unmarshal(data, &out); err != nil {
						t.Errorf("chaos response: %v: %s", err, data)
						return
					}
					if out.Makespan <= 0 {
						t.Errorf("chaos answer with makespan %v: %s", out.Makespan, data)
					}
					if pinnedPaper && out.Algo != "paper" && !out.Degraded {
						t.Errorf("pinned paper answered by %q without a degraded label: %s", out.Algo, data)
					}
					if out.Degraded && out.DegradedReason == "" {
						t.Errorf("degraded answer without a reason: %s", data)
					}
					mu.Lock()
					responses++
					if out.Degraded {
						degraded++
					}
					mu.Unlock()
					probe(t, out.Fingerprint)
				case http.StatusAccepted:
					var acc JobAccepted
					if err := json.Unmarshal(data, &acc); err != nil {
						t.Errorf("chaos accept: %v: %s", err, data)
						return
					}
					mu.Lock()
					jobs = append(jobs, acc.URL)
					mu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if ra := resp.Header.Get("Retry-After"); ra == "" {
						t.Errorf("shed %d without Retry-After", resp.StatusCode)
					}
					mu.Lock()
					shed++
					mu.Unlock()
				default:
					// In particular: never a 500. Recoverable numerical
					// failures must have been absorbed by the ladder.
					t.Errorf("chaos request: status %d: %s", resp.StatusCode, data)
				}
			}
		}(c)
	}
	wg.Wait()

	// Every accepted job reaches a terminal state; a 404 is a job that
	// finished and was evicted, which is terminal too. The drain budget
	// scales with the client count: a 500-client -race run leaves a
	// deep backlog of accepted jobs behind a 4-worker pool.
	deadline := time.Now().Add(60*time.Second + time.Duration(*chaosClients)*500*time.Millisecond)
	for _, url := range jobs {
		for {
			resp, err := http.Get(ts.URL + url)
			if err != nil {
				t.Fatal(err)
			}
			var st JobStatus
			jsonErr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				break
			}
			if resp.StatusCode != http.StatusOK || jsonErr != nil {
				t.Fatalf("chaos job poll %s: status %d, err %v", url, resp.StatusCode, jsonErr)
			}
			if st.State == JobDone || st.State == JobFailed {
				if st.State == JobFailed {
					// A failed job is terminal — not lost — but under
					// chaos a failure must still be a classified one the
					// ladder could not absorb, never silent. Record it.
					t.Logf("chaos job %s failed: %s", st.ID, st.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("chaos job %s stuck in state %q", url, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Final probe sweep re-checks monotonicity after the dust settles.
	mu.Lock()
	fps := make([]string, 0, len(bestTier))
	for fp := range bestTier {
		fps = append(fps, fp)
	}
	mu.Unlock()
	for _, fp := range fps {
		probe(t, fp)
	}

	for _, name := range []string{
		faultinject.LUFactorFail, faultinject.CacheShardError,
		faultinject.SlowSolve, faultinject.FlowSweepStall,
	} {
		t.Logf("fault %-18s fired %d/%d", name, inj.Fired(name), inj.Calls(name))
	}
	m := metrics(t, ts)
	for _, k := range []string{
		"degrade_attempts", "degrade_engine", "degrade_greedy",
		"degrade_exhausted", "shed_queue_full", "shed_deadline",
	} {
		t.Logf("metric %-18s %v", k, m[k])
	}
	t.Logf("chaos: %d sync responses (%d degraded), %d shed, %d jobs", responses, degraded, shed, len(jobs))
	if responses+len(jobs) == 0 {
		t.Fatal("chaos run produced no accepted work at all")
	}
	if inj.Calls(faultinject.LUFactorFail) == 0 {
		t.Error("LU-factor fault point never consulted; the chaos run exercised nothing")
	}
}
