package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"malsched"
)

func decodeSolveV2(t *testing.T, data []byte) *SolveResponseV2 {
	t.Helper()
	var out SolveResponseV2
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding v2 solve response %s: %v", data, err)
	}
	return &out
}

// TestV1ContractLock pins the /v1/solve wire format now that the handler is
// a shim over the v2 core: the response must carry exactly the pre-v2 key
// set — in particular none of the v2 additions (fingerprint, tier, delta,
// refine) may leak — and the deterministic fields must keep their values.
// Timing fields are present but not value-checked.
func TestV1ContractLock(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")

	cases := []struct {
		name     string
		req      SolveRequest
		wantKeys []string
		want     map[string]any // deterministic value checks
	}{
		{
			name:     "pinned paper",
			req:      SolveRequest{Instance: in, Algo: "paper"},
			wantKeys: []string{"makespan", "lower_bound", "guarantee", "proven_ratio", "alloc", "algo", "routed", "route_reason", "cache", "elapsed_ms", "cold_ms"},
			want:     map[string]any{"algo": "paper", "routed": false, "cache": "miss"},
		},
		{
			name:     "auto routed",
			req:      SolveRequest{Instance: in},
			wantKeys: []string{"makespan", "lower_bound", "guarantee", "proven_ratio", "alloc", "algo", "routed", "route_reason", "cache", "elapsed_ms", "cold_ms"},
			want:     map[string]any{"algo": "paper", "routed": true, "cache": "hit"},
		},
		{
			name:     "greedy no_cache",
			req:      SolveRequest{Instance: in, Algo: "greedy", NoCache: true},
			wantKeys: []string{"makespan", "alloc", "algo", "routed", "route_reason", "cache", "elapsed_ms", "cold_ms"},
			want:     map[string]any{"algo": "greedy", "routed": false, "cache": "bypass"},
		},
		{
			name:     "greedy with schedule",
			req:      SolveRequest{Instance: in, Algo: "greedy", IncludeSchedule: true},
			wantKeys: []string{"makespan", "alloc", "algo", "routed", "route_reason", "cache", "elapsed_ms", "cold_ms", "schedule"},
			want:     map[string]any{"algo": "greedy", "routed": false, "cache": "miss"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/solve", c.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			var got map[string]any
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			gotKeys := make([]string, 0, len(got))
			for k := range got {
				gotKeys = append(gotKeys, k)
			}
			sort.Strings(gotKeys)
			wantKeys := append([]string(nil), c.wantKeys...)
			sort.Strings(wantKeys)
			if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
				t.Errorf("v1 response keys drifted:\n got  %v\n want %v\nbody %s", gotKeys, wantKeys, data)
			}
			for k, want := range c.want {
				if got[k] != want {
					t.Errorf("v1 response[%q] = %v, want %v", k, got[k], want)
				}
			}
		})
	}

	// The v2-only "formulation" request field must be ignored by /v1 (not
	// rejected, not honoured) and must never appear in a /v1 response: the
	// shim stays byte-identical to the pre-formulation server.
	t.Run("formulation field ignored", func(t *testing.T) {
		resp, data := postJSON(t, ts.URL+"/v1/solve", map[string]any{
			"instance": in, "algo": "paper", "formulation": "mincut",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var got map[string]any
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if _, leaked := got["formulation"]; leaked {
			t.Errorf("v1 response leaked a formulation field: %s", data)
		}
		if got["algo"] != "paper" {
			t.Errorf("v1 response algo = %v, want paper: %s", got["algo"], data)
		}
		if strings.Contains(string(data), "formulation") {
			t.Errorf("v1 response body mentions formulation: %s", data)
		}
	})
}

// editTimes scales one task's time vector, keeping its shape (length and
// monotonicity) so the structure fingerprint is unchanged.
func editTimes(in *malsched.Instance, task int, factor float64) TaskEdit {
	src := in.Tasks[task].Times
	times := make([]float64, len(src))
	for i, v := range src {
		times[i] = v * factor
	}
	return TaskEdit{Task: task, Times: times}
}

func TestV2SolveIdentityAndTier(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")

	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	out := decodeSolveV2(t, data)
	if out.Fingerprint != in.Fingerprint() || out.StructureFingerprint != in.StructureFingerprint() {
		t.Errorf("identity: got (%s, %s), want (%s, %s)",
			out.Fingerprint, out.StructureFingerprint, in.Fingerprint(), in.StructureFingerprint())
	}
	if out.Tier != "paper" || out.Delta != "" || out.Cache != "miss" {
		t.Errorf("first v2 solve: %+v", out)
	}

	// Repeat: the routed request is served from the quality slot.
	_, data = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in})
	if rep := decodeSolveV2(t, data); rep.Cache != "hit" || rep.Tier != "paper" {
		t.Errorf("repeat v2 solve: cache %q tier %q, want hit/paper", rep.Cache, rep.Tier)
	}
}

func TestV2DeltaWarmThenCutoffs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")

	_, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper"})
	base := decodeSolveV2(t, data)
	if base.Fingerprint == "" {
		t.Fatalf("base solve: %+v", base)
	}

	// Within the edit budget: warm delta, and the answer matches a cold
	// solve of the same edited instance bit-for-bit in makespan.
	edits := []TaskEdit{editTimes(in, 1, 1.07), editTimes(in, 3, 0.9)}
	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Base: base.Fingerprint, Edits: edits, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, data)
	}
	warm := decodeSolveV2(t, data)
	if warm.Delta != "warm" || warm.Cache != "miss" {
		t.Fatalf("delta solve: delta %q cache %q, want warm/miss", warm.Delta, warm.Cache)
	}
	edited, err := applyEdits(in, edits)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fingerprint != edited.Fingerprint() {
		t.Errorf("delta fingerprint %s, want %s", warm.Fingerprint, edited.Fingerprint())
	}
	_, data = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: edited, Algo: "paper", NoCache: true})
	cold := decodeSolveV2(t, data)
	if warm.Makespan != cold.Makespan {
		t.Errorf("warm makespan %v != cold makespan %v", warm.Makespan, cold.Makespan)
	}

	// k+1 distinct task edits: over budget, falls back cold.
	var many []TaskEdit
	for i := 0; i < maxDeltaEdits+1; i++ {
		many = append(many, editTimes(in, i, 1.3))
	}
	_, data = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Base: base.Fingerprint, Edits: many, Algo: "paper"})
	if out := decodeSolveV2(t, data); out.Delta != "cold" {
		t.Errorf("%d edits: delta %q, want cold", maxDeltaEdits+1, out.Delta)
	}

	// A structure change (here: a dropped precedence edge, posted as a
	// full instance alongside the base hint) flips the structure
	// fingerprint: the basis cannot transplant, falls back cold.
	reshaped := &malsched.Instance{M: in.M, Tasks: in.Tasks, Edges: in.Edges[:len(in.Edges)-1]}
	if reshaped.StructureFingerprint() == in.StructureFingerprint() {
		t.Fatal("test setup: dropping an edge did not change the structure fingerprint")
	}
	resp, data = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Base: base.Fingerprint, Instance: reshaped, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("structure-mismatch status %d: %s", resp.StatusCode, data)
	}
	if out := decodeSolveV2(t, data); out.Delta != "cold" {
		t.Errorf("structure mismatch: delta %q, want cold", out.Delta)
	}

	m := metrics(t, ts)
	if m["delta_warm"] != 1 {
		t.Errorf("delta_warm = %v, want 1", m["delta_warm"])
	}
	if m["delta_cold"] != 2 {
		t.Errorf("delta_cold = %v, want 2", m["delta_cold"])
	}
}

// TestV2DeltaWithOverridesFindsBase: rho and mu key quality slots of
// their own, so a delta carrying an override once missed a base solved
// without it and got the 400 "unknown base". Phase 1 reads neither, so
// the base's instance and snapshot serve it warm, with the answer a cold
// solve of the edited instance gives under the same override.
func TestV2DeltaWithOverridesFindsBase(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	_, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in})
	base := decodeSolveV2(t, data)

	rho := 0.3
	edits := []TaskEdit{editTimes(in, 1, 1.07), editTimes(in, 3, 0.9)}
	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Base: base.Fingerprint, Edits: edits, Rho: &rho})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta with rho: status %d: %s", resp.StatusCode, data)
	}
	warm := decodeSolveV2(t, data)
	if warm.Delta != "warm" {
		t.Errorf("delta with rho: delta %q, want warm", warm.Delta)
	}
	edited, err := applyEdits(in, edits)
	if err != nil {
		t.Fatal(err)
	}
	_, data = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: edited, Rho: &rho, NoCache: true})
	if cold := decodeSolveV2(t, data); warm.Makespan != cold.Makespan || warm.Fingerprint != cold.Fingerprint {
		t.Errorf("delta with rho: makespan %v fingerprint %s, cold solve %v %s", warm.Makespan, warm.Fingerprint, cold.Makespan, cold.Fingerprint)
	}
}

func TestV2DeltaBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	_, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper"})
	base := decodeSolveV2(t, data)

	cases := []struct {
		name string
		req  SolveRequestV2
	}{
		{"edits without base", SolveRequestV2{Instance: in, Edits: []TaskEdit{editTimes(in, 0, 1.1)}}},
		{"unknown base no instance", SolveRequestV2{Base: "malsched-fp-v2:ffff", Edits: []TaskEdit{editTimes(in, 0, 1.1)}}},
		{"edit index out of range", SolveRequestV2{Base: base.Fingerprint, Edits: []TaskEdit{{Task: 99, Times: []float64{1}}}}},
		{"empty edit times", SolveRequestV2{Base: base.Fingerprint, Edits: []TaskEdit{{Task: 0}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v2/solve", c.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", resp.StatusCode, data)
			}
		})
	}

	// An unknown base WITH an instance is not an error: the request is
	// self-contained and solves cold.
	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Base: "malsched-fp-v2:ffff", Instance: in, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("self-contained fallback: status %d: %s", resp.StatusCode, data)
	}
	if out := decodeSolveV2(t, data); out.Delta != "cold" {
		t.Errorf("self-contained fallback: delta %q, want cold", out.Delta)
	}
}

// waitForTier polls the solutions probe until the identity's quality slot
// reaches the tier (or the deadline passes).
func waitForTier(t *testing.T, ts *httptest.Server, fp, want string) SolutionProbe {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v2/solutions/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var p SolutionProbe
			if err := json.Unmarshal(data, &p); err != nil {
				t.Fatal(err)
			}
			if p.Tier == want {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("quality slot for %s not at tier %q after 30s (last: %s)", fp, want, data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestV2RefineBehind(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "layered_n12_m8.json")
	// The shape auto-routes to the sweep, which keeps no delta state, so
	// the request pins lazy; its refinement and quality slot carry the pin.
	req := SolveRequestV2{Instance: in, DeadlineMS: 0.0001, Formulation: "lazy"}

	// An impossible deadline downgrades to greedy; the answer comes back
	// immediately at tier greedy with a refinement queued behind it.
	resp, data := postJSON(t, ts.URL+"/v2/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	first := decodeSolveV2(t, data)
	if first.Algo != "greedy" || first.Tier != "greedy" || !first.Routed {
		t.Fatalf("downgraded solve: %+v", first)
	}
	if first.Refine != "queued" {
		t.Fatalf("refine = %q, want queued", first.Refine)
	}

	// The background paper solve lands in the quality slot tier-monotonically.
	probe := waitForTier(t, ts, first.Fingerprint+"?formulation=lazy", "paper")
	if probe.Algo != "paper" || !probe.DeltaReady {
		t.Errorf("refined slot: %+v, want paper with delta state", probe)
	}
	if probe.Makespan > first.Makespan {
		t.Errorf("refinement worsened the answer: %v > %v", probe.Makespan, first.Makespan)
	}

	// The same downgraded request now returns the paper answer at cache-hit
	// latency: quality-first lookup accepts any tier >= the routed one.
	_, data = postJSON(t, ts.URL+"/v2/solve", req)
	second := decodeSolveV2(t, data)
	if second.Cache != "hit" || second.Tier != "paper" || second.Algo != "paper" {
		t.Errorf("repeat after refinement: cache %q tier %q algo %q, want hit/paper/paper", second.Cache, second.Tier, second.Algo)
	}
	if second.Refine != "" {
		t.Errorf("repeat queued another refinement: %q", second.Refine)
	}

	m := metrics(t, ts)
	if m["refine_queued"] < 1 || m["refined"] < 1 {
		t.Errorf("refine counters: queued=%v refined=%v, want >= 1 each", m["refine_queued"], m["refined"])
	}
}

func TestV2SolutionsProbe(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json") // deep: lazy, so delta-ready

	resp, err := http.Get(ts.URL + "/v2/solutions/malsched-fp-v2:nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d, want 404", resp.StatusCode)
	}

	_, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper"})
	out := decodeSolveV2(t, data)
	resp, err = http.Get(ts.URL + "/v2/solutions/" + out.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status %d: %s", resp.StatusCode, data)
	}
	var p SolutionProbe
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.Tier != "paper" || p.Algo != "paper" || p.Makespan != out.Makespan || !p.DeltaReady {
		t.Errorf("probe: %+v vs solve %+v", p, out)
	}

	// Parameter overrides address a different quality slot.
	resp, err = http.Get(ts.URL + "/v2/solutions/" + out.Fingerprint + "?rho=0.3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("rho-parameterised probe: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v2/solutions/" + out.Fingerprint + "?mu=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed mu: status %d, want 400", resp.StatusCode)
	}
}

// TestV2LTWAnswerLeavesParameterSlots: LTW ignores rho, mu and the
// formulation pin but is tier paper. Filed under the slot of its
// request's overrides, an LTW answer answered every later routed request
// naming them (algo ltw, formulation lazy), and no paper answer could
// replace it. It belongs to the parameter-free slot.
func TestV2LTWAnswerLeavesParameterSlots(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	rho := 0.3

	_, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "ltw", Rho: &rho, Formulation: "mincut"})
	ltw := decodeSolveV2(t, data)
	if ltw.Algo != "ltw" || ltw.Tier != "paper" {
		t.Fatalf("ltw solve: algo %q tier %q", ltw.Algo, ltw.Tier)
	}
	slot := ts.URL + "/v2/solutions/" + ltw.Fingerprint
	if resp, data := httpGet(t, slot+"?rho=0.3&formulation=mincut"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("overrides slot after an ltw solve: status %d (%s), want 404", resp.StatusCode, data)
	}
	resp, data := httpGet(t, slot)
	var p SolutionProbe
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &p) != nil || p.Algo != "ltw" {
		t.Errorf("parameter-free slot: status %d, %s; want the ltw answer", resp.StatusCode, data)
	}

	_, data = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Rho: &rho, Formulation: "mincut"})
	routed := decodeSolveV2(t, data)
	if routed.Cache == "hit" || routed.Algo != "paper" || routed.Formulation != "mincut" {
		t.Errorf("routed request with the same overrides: cache %q algo %q formulation %q; want a paper solve on mincut",
			routed.Cache, routed.Algo, routed.Formulation)
	}
	resp, data = httpGet(t, slot+"?rho=0.3&formulation=mincut")
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &p) != nil || p.Algo != "paper" || p.Formulation != "mincut" {
		t.Errorf("overrides slot after the routed solve: status %d, %s; want the paper answer", resp.StatusCode, data)
	}
}

func TestV2JobsLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "erdos_n12_m4.json")

	resp, data := postJSON(t, ts.URL+"/v2/jobs", SolveRequestV2{Instance: in, Algo: "paper"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var acc JobAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.URL != "/v2/jobs/"+acc.ID {
		t.Fatalf("accepted: %+v", acc)
	}
	st := waitForJob(t, ts.URL+acc.URL)
	if st.State != JobDone {
		t.Fatalf("job: %+v", st)
	}
	res, ok := st.Result.(map[string]any)
	if !ok || res["tier"] != "paper" || res["fingerprint"] != in.Fingerprint() {
		t.Errorf("v2 job result: %+v", st.Result)
	}

	// A delta submission without base or instance is rejected up front.
	resp, data = postJSON(t, ts.URL+"/v2/jobs", SolveRequestV2{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty v2 job: status %d, want 400: %s", resp.StatusCode, data)
	}
}

func TestV2BatchSharesCore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := loadTestdata(t, "chain_n10_m4.json")
	b := loadTestdata(t, "forkjoin_n10_m4.json")

	resp, data := postJSON(t, ts.URL+"/v2/batch", BatchRequestV2{Instances: []*malsched.Instance{a, nil, b}, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out BatchResponseV2
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[1].Error == "" || out.Results[1].Result != nil {
		t.Errorf("nil instance: %+v, want error", out.Results[1])
	}
	for _, i := range []int{0, 2} {
		r := out.Results[i].Result
		if r == nil || r.Tier != "paper" || r.Fingerprint == "" {
			t.Errorf("result %d: %+v", i, out.Results[i])
		}
	}
	if out.Results[0].Result.Fingerprint == out.Results[2].Result.Fingerprint {
		t.Error("distinct instances share a fingerprint")
	}
}

// TestTierMonotonicCAS races greedy and paper writers against one quality
// slot: whatever the interleaving, paper must win and stay (run under
// -race to also certify the locking).
func TestTierMonotonicCAS(t *testing.T) {
	c := newCache(64, 4)
	greedy := &solution{res: &malsched.Result{Makespan: 2}, algo: malsched.AlgoGreedyCP, tier: tierGreedy}
	paper := &solution{res: &malsched.Result{Makespan: 1}, algo: malsched.AlgoPaper, tier: tierPaper}

	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		sol := greedy
		if i%2 == 1 {
			sol = paper
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.putIfBetter("q|race", sol)
			}
		}()
	}
	wg.Wait()

	e, ok := c.get("q|race")
	if !ok || e.tier != tierPaper {
		t.Fatalf("after the race: entry %+v, want tier paper", e)
	}
	// And once paper is resident, a greedy write must bounce.
	if c.putIfBetter("q|race", greedy) {
		t.Error("greedy overwrote a paper entry")
	}
	if e, _ := c.get("q|race"); e.tier != tierPaper || e.algo != malsched.AlgoPaper {
		t.Errorf("slot degraded to %+v", e)
	}
}

// TestV2MetricsCounters: the v2 request counters exist and count.
func TestV2MetricsCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n12_m16.json")
	postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "greedy"})
	postJSON(t, ts.URL+"/v2/batch", BatchRequestV2{Instances: []*malsched.Instance{in}, Algo: "greedy"})
	http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader("{"))

	m := metrics(t, ts)
	for k, want := range map[string]float64{
		"requests_v2_solve": 2,
		"requests_v2_batch": 1,
		"errors_total":      1,
	} {
		if m[k] != want {
			t.Errorf("metrics[%q] = %v, want %v", k, m[k], want)
		}
	}
}
