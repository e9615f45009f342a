package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"testing"
	"time"

	"malsched"
)

// newTestServer spins up a server over httptest; cfg tweaks are applied to
// a small default.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func loadTestdata(t *testing.T, name string) *malsched.Instance {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in, err := malsched.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeSolve(t *testing.T, data []byte) *SolveResponse {
	t.Helper()
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding solve response %s: %v", data, err)
	}
	return &out
}

func TestSolveMissThenHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")

	resp, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	first := decodeSolve(t, data)
	if first.Makespan <= 0 || first.Cache != "miss" || first.Algo != "paper" || first.Routed {
		t.Fatalf("first solve: %+v", first)
	}
	if first.Guarantee <= 0 || first.Guarantee > first.ProvenRatio {
		t.Errorf("guarantee %v outside (0, %v]", first.Guarantee, first.ProvenRatio)
	}

	// Same instance with renamed tasks and permuted edges must hit the
	// content-addressed cache.
	renamed := *in
	renamed.Tasks = append([]malsched.Task(nil), in.Tasks...)
	for i := range renamed.Tasks {
		renamed.Tasks[i].Name = fmt.Sprintf("other-%d", i)
	}
	for i, j := 0, len(renamed.Edges)-1; i < j; i, j = i+1, j-1 {
		renamed.Edges[i], renamed.Edges[j] = renamed.Edges[j], renamed.Edges[i]
	}
	resp, data = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: &renamed, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	second := decodeSolve(t, data)
	if second.Cache != "hit" {
		t.Fatalf("second solve: cache %q, want hit", second.Cache)
	}
	if second.Makespan != first.Makespan {
		t.Errorf("hit makespan %v != miss makespan %v", second.Makespan, first.Makespan)
	}
	if second.ColdMS != first.ColdMS {
		t.Errorf("hit cold_ms %v != miss cold_ms %v", second.ColdMS, first.ColdMS)
	}
}

func TestSolveParameterOverridesSplitCacheEntries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	rho := 0.3
	_, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in})
	base := decodeSolve(t, data)
	_, data = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, Rho: &rho})
	overridden := decodeSolve(t, data)
	if overridden.Cache != "miss" {
		t.Errorf("rho override hit the base entry: %+v", overridden)
	}
	if base.Cache != "miss" {
		t.Errorf("base solve: %+v", base)
	}
}

func TestSolveBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	valid := loadTestdata(t, "chain_n10_m4.json")
	rho, muHigh, muZero := 2.0, 99, 0
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"instance": {`},
		{"wrong type", `{"instance": 42}`},
		{"missing instance", `{}`},
		{"unknown algo", mustJSON(SolveRequest{Instance: valid, Algo: "quantum"})},
		{"cyclic instance", `{"instance": {"m": 2, "tasks": [{"Times": [1, 1]}, {"Times": [1, 1]}], "edges": [[0, 1], [1, 0]]}}`},
		{"edge out of range", `{"instance": {"m": 2, "tasks": [{"Times": [1, 1]}], "edges": [[0, 5]]}}`},
		{"rho above 1", mustJSON(SolveRequest{Instance: valid, Rho: &rho})},
		{"mu above m", mustJSON(SolveRequest{Instance: valid, Mu: &muHigh})},
		{"mu below 1", mustJSON(SolveRequest{Instance: valid, Mu: &muZero})},
	}
	for _, c := range cases {
		for _, path := range []string{"/v1/solve", "/v1/jobs"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			// Async submissions only vet the envelope; instance-level
			// problems surface in the job state instead.
			wantBad := path == "/v1/solve" || c.name == "malformed json" ||
				c.name == "wrong type" || c.name == "missing instance"
			if wantBad && resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%s)", path, c.name, resp.StatusCode, data)
			}
			if resp.StatusCode == http.StatusBadRequest && !bytes.Contains(data, []byte("error")) {
				t.Errorf("%s %s: 400 without error body: %s", path, c.name, data)
			}
		}
	}
}

// overflowInstance passes every per-task check, but its total work at
// full allotment, 2·1e308 + 2·9e307, overflows float64.
const overflowInstance = `{"m": 2, "tasks": [{"Times": [1e308, 1e308]}, {"Times": [1e308, 9e307]}], "edges": [[0, 1]]}`

// An instance whose work overflows is a 400 naming the limit on every
// solve path and algorithm, not a 200 whose +Inf makespan the encoder
// refuses after the header went out. Ten times smaller, it still solves
// (the lazy simplex reports a phantom "unbounded" at that magnitude, so
// the ladder answers it from min-cut).
func TestSolveWorkOverflowIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/solve", "/v2/solve"} {
		for _, algo := range []string{"paper", "greedy"} {
			body := `{"algo": "` + algo + `", "instance": ` + overflowInstance + `}`
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("total work")) {
				t.Errorf("%s %s: status %d, want a 400 naming the total-work limit: %s", path, algo, resp.StatusCode, data)
			}
		}
	}

	const small = `{"m": 2, "tasks": [{"Times": [1e307, 1e307]}, {"Times": [1e307, 9e306]}], "edges": [[0, 1]]}`
	resp, err := http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader(`{"instance": `+small+`}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("1e307 instance: status %d: %s", resp.StatusCode, data)
	}
	if out := decodeSolveV2(t, data); !(out.Makespan >= 1e307 && out.Makespan <= 2e307) {
		t.Errorf("1e307 instance: makespan %v, want within [1e307, 2e307]", out.Makespan)
	}
}

// TestV2HugeTimesUndegraded: the 1e307 chain has OPT = 1.9e307. It used
// to fail on the lazy route (a phantom "unbounded" from overflowing
// supporting-line intercepts) and come back degraded from the sweep,
// whose overflowing crossing put lower_bound at 2e307, above OPT.
func TestV2HugeTimesUndegraded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const huge = `{"m": 2, "tasks": [{"Times": [1e307, 1e307]}, {"Times": [1e307, 9e306]}], "edges": [[0, 1]]}`
	resp, err := http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader(`{"instance": `+huge+`}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	out := decodeSolveV2(t, data)
	if out.Degraded || out.Tier != "paper" {
		t.Errorf("answer degraded=%v (%q), tier %q; want an undegraded paper answer", out.Degraded, out.DegradedReason, out.Tier)
	}
	if out.LowerBound > 1.9e307*(1+1e-9) {
		t.Errorf("lower_bound %g exceeds OPT 1.9e307", out.LowerBound)
	}
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2048})
	in := loadTestdata(t, "chain_n10_m4.json")
	small := mustJSON(SolveRequest{Instance: in})
	if len(small) > 2048 {
		t.Fatalf("test instance serialises to %d bytes, want under the 2048 cap", len(small))
	}
	// Padding a request past the cap must yield a JSON 413 on every POST
	// endpoint; the in-cap request must still work.
	big := `{"pad": "` + strings.Repeat("x", 4096) + `", ` + small[1:]
	for _, path := range []string{"/v1/solve", "/v1/batch", "/v1/jobs", "/v2/solve", "/v2/batch", "/v2/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized: status %d, want 413 (%s)", path, resp.StatusCode, data)
		}
		if !bytes.Contains(data, []byte("error")) {
			t.Errorf("%s oversized: 413 without JSON error body: %s", path, data)
		}
	}
	resp, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-cap solve under body limit: status %d: %s", resp.StatusCode, data)
	}
	// The decoder stops at the end of the first value, so an in-cap
	// object decodes even when padding runs past the cap after it.
	for _, pad := range []string{strings.Repeat(" ", 4096), strings.Repeat("x", 4096)} {
		for _, path := range []string{"/v1/solve", "/v2/solve"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(small+pad))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s in-cap object, %q padding past the cap: status %d, want 200 (%s)", path, pad[0], resp.StatusCode, data)
			}
		}
	}
}

func TestBodyLimitDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: -1})
	in := loadTestdata(t, "chain_n10_m4.json")
	big := `{"pad": "` + strings.Repeat("x", 1<<20) + `", ` + mustJSON(SolveRequest{Instance: in})[1:]
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("uncapped 1 MiB request: status %d, want 200 (%s)", resp.StatusCode, data)
	}
}

func TestSolveMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: status %d, want 405", resp.StatusCode)
	}
}

func TestSolveAutoRoutingAndSchedule(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "layered_n12_m8.json")

	_, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, IncludeSchedule: true})
	out := decodeSolve(t, data)
	if !out.Routed || out.Algo != "paper" || out.RouteReason == "" {
		t.Errorf("auto small instance: %+v", out)
	}
	if len(out.Schedule) != len(in.Tasks) {
		t.Fatalf("schedule has %d items, want %d", len(out.Schedule), len(in.Tasks))
	}
	for _, it := range out.Schedule {
		if it.Name != in.Tasks[it.Task].Name {
			t.Errorf("schedule item %d carries name %q, want %q", it.Task, it.Name, in.Tasks[it.Task].Name)
		}
	}

	// An impossible deadline routes to greedy; a pinned algo is never routed.
	_, data = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, DeadlineMS: 0.0001})
	if out := decodeSolve(t, data); out.Algo != "greedy" || !out.Routed {
		t.Errorf("tight deadline: %+v", out)
	}
	_, data = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, Algo: "ltw", DeadlineMS: 0.0001})
	if out := decodeSolve(t, data); out.Algo != "ltw" || out.Routed {
		t.Errorf("pinned ltw: %+v", out)
	}
}

func TestSolveNoCacheBypasses(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	for i := 0; i < 2; i++ {
		_, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, NoCache: true})
		if out := decodeSolve(t, data); out.Cache != "bypass" {
			t.Fatalf("request %d: cache %q, want bypass", i, out.Cache)
		}
	}
	if s.cache.len() != 0 {
		t.Errorf("bypassed requests populated the cache: %d entries", s.cache.len())
	}
}

func TestSolveCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	in := loadTestdata(t, "chain_n10_m4.json")
	for i := 0; i < 2; i++ {
		_, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in})
		if out := decodeSolve(t, data); out.Cache != "bypass" {
			t.Fatalf("request %d: cache %q, want bypass", i, out.Cache)
		}
	}
}

func TestConcurrentIdenticalSolvesRunOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	in := loadTestdata(t, "erdos_n12_m4.json")
	const clients = 32

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(SolveRequest{Instance: in})
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()

	m := metrics(t, ts)
	if m["solves_paper"] != 1 {
		t.Errorf("identical concurrent requests ran %v solves, want 1", m["solves_paper"])
	}
	if total := m["cache_hit"] + m["cache_shared"] + m["cache_miss"]; total != clients {
		t.Errorf("cache outcomes sum to %v, want %d", total, clients)
	}
	if s.cache.len() != 1 {
		t.Errorf("cache has %d entries, want 1", s.cache.len())
	}
}

func TestBatchOrderAndErrorIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	good1 := loadTestdata(t, "chain_n10_m4.json")
	good2 := loadTestdata(t, "forkjoin_n10_m4.json")
	bad := &malsched.Instance{M: 2, Tasks: []malsched.Task{malsched.PowerLawTask("t", 1, 0.5, 2)}, Edges: [][2]int{{0, 7}}}

	resp, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Instances: []*malsched.Instance{good1, bad, good2, nil}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	for _, i := range []int{0, 2} {
		if out.Results[i].Result == nil || out.Results[i].Error != "" {
			t.Errorf("result %d: %+v, want success", i, out.Results[i])
		}
	}
	for _, i := range []int{1, 3} {
		if out.Results[i].Result != nil || out.Results[i].Error == "" {
			t.Errorf("result %d: %+v, want error", i, out.Results[i])
		}
	}
	if out.Results[0].Result.Makespan == out.Results[2].Result.Makespan {
		t.Error("distinct instances returned identical makespans — results crossed?")
	}
}

func TestEmptyBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
}

func waitForJob(t *testing.T, url string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after 30s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "erdos_n16_m16.json")

	resp, data := postJSON(t, ts.URL+"/v1/jobs", SolveRequest{Instance: in})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var acc JobAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == "" || acc.URL != "/v1/jobs/"+acc.ID {
		t.Fatalf("accepted: %+v", acc)
	}

	st := waitForJob(t, ts.URL+acc.URL)
	if st.State != JobDone || st.Result == nil || st.Error != "" {
		t.Fatalf("finished job: %+v", st)
	}
	res, ok := st.Result.(map[string]any)
	if !ok {
		t.Fatalf("job result is %T, want an object: %+v", st.Result, st.Result)
	}
	if ms, _ := res["makespan"].(float64); ms <= 0 || st.Finished == nil {
		t.Errorf("job result: %+v", st.Result)
	}

	// The async solve must have populated the shared cache: a sync request
	// for the same instance hits.
	_, data = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in})
	if out := decodeSolve(t, data); out.Cache != "hit" {
		t.Errorf("sync after async: cache %q, want hit", out.Cache)
	}
}

func TestJobFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := &malsched.Instance{M: 2, Tasks: []malsched.Task{malsched.PowerLawTask("t", 1, 0.5, 2)}, Edges: [][2]int{{0, 9}}}
	resp, data := postJSON(t, ts.URL+"/v1/jobs", SolveRequest{Instance: bad})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var acc JobAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	st := waitForJob(t, ts.URL+acc.URL)
	if st.State != JobFailed || st.Error == "" || st.Result != nil {
		t.Fatalf("failed job: %+v", st)
	}
}

func TestJobUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestJobStoreInFlightBound(t *testing.T) {
	js := newJobStore(2)
	now := time.Now()
	id1, err := js.create(now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := js.create(now); err != nil {
		t.Fatal(err)
	}
	if _, err := js.create(now); !errors.Is(err, errJobsBusy) {
		t.Fatalf("third in-flight job: err=%v, want errJobsBusy", err)
	}
	js.finish(id1, &SolveResponse{}, nil, now)
	if _, err := js.create(now); err != nil {
		t.Errorf("create after a finish: %v", err)
	}
}

// Server-side failures (here: the solver pool closed during drain) must
// surface as 500, not as the client's fault.
func TestSolveServerErrorIs500(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	s.Close()
	resp, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, NoCache: true})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500: %s", resp.StatusCode, data)
	}
}

func TestJobStoreEviction(t *testing.T) {
	js := newJobStore(2)
	now := time.Now()
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := js.create(now)
		if err != nil {
			t.Fatal(err)
		}
		js.finish(id, &SolveResponse{}, nil, now)
		ids = append(ids, id)
	}
	if _, ok := js.get(ids[0]); ok {
		t.Error("oldest finished job survived past the bound")
	}
	for _, id := range ids[1:] {
		if _, ok := js.get(id); !ok {
			t.Errorf("job %s evicted too early", id)
		}
	}
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" || out["workers"] != float64(3) || s.Workers() != 3 {
		t.Errorf("healthz: %s", data)
	}
}

// metrics fetches /metrics and returns its top-level numeric fields (the
// deprecated flat aliases plus schema_version; the nested per-formulation
// section is decoded by the tests that assert on it).
func metrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("metrics is not a JSON object: %s", data)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

func TestMetricsCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n12_m16.json")
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in})
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in})
	http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{"))

	m := metrics(t, ts)
	checks := map[string]float64{
		"requests_solve": 3,
		"cache_miss":     1,
		"cache_hit":      1,
		"errors_total":   1,
		"solves_paper":   1,
		"cache_entries":  1,
	}
	for k, want := range checks {
		if m[k] != want {
			t.Errorf("metrics[%q] = %v, want %v", k, m[k], want)
		}
	}
}

// TestSolveDeadlineValidation: non-finite or negative deadline_ms must be
// rejected with 400 — time.Duration(NaN * float64(time.Millisecond)) is an
// undefined float->int conversion, and negatives would silently mean
// "unconstrained".
func TestSolveDeadlineValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	// nan/inf are invalid JSON and 400 at decode; "negative" and
	// "overflow" (finite, but deadline*1e6 exceeds int64 — the wrap would
	// read as "unconstrained") reach solveOne's validation itself.
	for name, raw := range map[string]string{
		"nan":      `NaN`,
		"inf":      `1e999`,
		"negative": `-5`,
		"overflow": `1e19`,
	} {
		t.Run(name, func(t *testing.T) {
			enc, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			body := `{"instance":` + string(enc) + `,"deadline_ms":` + raw + `}`
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("deadline_ms %s: status %d, want 400 (%s)", raw, resp.StatusCode, data)
			}
		})
	}
	// A valid positive deadline must still be accepted.
	resp, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, DeadlineMS: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid deadline rejected: %d %s", resp.StatusCode, data)
	}
}

// TestSolveIgnoredParamsShareCacheEntry: rho/mu only key the cache for the
// paper algorithm; for greedy (and the other baselines that ignore them) a
// parameter-carrying request must hit the entry its parameterless twin
// populated, and vice versa.
func TestSolveIgnoredParamsShareCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	rho, mu := 0.3, 2

	_, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, Algo: "greedy"})
	base := decodeSolve(t, data)
	if base.Cache != "miss" {
		t.Fatalf("first greedy solve: %+v", base)
	}
	_, data = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, Algo: "greedy", Rho: &rho, Mu: &mu})
	withParams := decodeSolve(t, data)
	if withParams.Cache != "hit" {
		t.Errorf("greedy with rho/mu missed the cache: %+v", withParams)
	}
	if withParams.Makespan != base.Makespan {
		t.Errorf("makespan changed across request shapes: %v vs %v", withParams.Makespan, base.Makespan)
	}

	// The paper algorithm DOES consume rho/mu: its entries must stay split.
	_, data = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, Algo: "paper"})
	if r := decodeSolve(t, data); r.Cache != "miss" {
		t.Fatalf("paper base: %+v", r)
	}
	_, data = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, Algo: "paper", Rho: &rho})
	if r := decodeSolve(t, data); r.Cache != "miss" {
		t.Errorf("paper with rho override shared the base entry: %+v", r)
	}
}

// TestLargeBatchBoundedFanout: a batch far larger than the pool must be
// served by a bounded worker set (one feeder per pool worker), complete,
// and preserve order. The goroutine count is sampled while the batch is in
// flight to catch a regression back to goroutine-per-instance fan-out.
func TestLargeBatchBoundedFanout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	in := loadTestdata(t, "chain_n10_m4.json")
	const batch = 3000
	ins := make([]*malsched.Instance, batch)
	for i := range ins {
		ins[i] = in
	}
	before := runtime.NumGoroutine()

	type outcome struct {
		resp *http.Response
		data []byte
		err  error
	}
	res := make(chan outcome, 1)
	go func() {
		// Plain HTTP here, not postJSON: t.Fatal only works from the test
		// goroutine, and a Fatal-ed helper would leave the sampler below
		// waiting forever.
		body, err := json.Marshal(BatchRequest{Instances: ins, Algo: "greedy"})
		if err != nil {
			res <- outcome{err: err}
			return
		}
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			res <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		res <- outcome{resp: resp, data: data, err: err}
	}()
	var peak int
	var out outcome
sample:
	for {
		select {
		case out = <-res:
			break sample
		default:
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.200s", out.resp.StatusCode, out.data)
	}
	var br BatchResponse
	if err := json.Unmarshal(out.data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != batch {
		t.Fatalf("got %d results, want %d", len(br.Results), batch)
	}
	for i, r := range br.Results {
		if r.Error != "" || r.Result == nil {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	if peak > before+64 {
		t.Errorf("goroutine count peaked at %d (baseline %d): fan-out not bounded", peak, before)
	}
}
