package server

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"malsched"
)

// TestV2FormulationPin pins each formulation on a small instance and
// checks the response reports exactly what ran; an unknown pin — the
// retired "segment" and "dense" routes among them — is a 400 whose
// message enumerates the valid values, lazy and mincut only.
func TestV2FormulationPin(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")

	for _, f := range []string{"lazy", "mincut"} {
		resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{
			Instance: in, Algo: "paper", Formulation: f,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pin %q: status %d: %s", f, resp.StatusCode, data)
		}
		out := decodeSolveV2(t, data)
		if out.Formulation != f {
			t.Errorf("pin %q: response formulation %q", f, out.Formulation)
		}
		if out.Makespan <= 0 {
			t.Errorf("pin %q: makespan %v", f, out.Makespan)
		}
	}

	for _, f := range []string{"segment", "dense", "simplex2000"} {
		resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{
			Instance: in, Formulation: f,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown formulation %q: status %d: %s", f, resp.StatusCode, data)
		}
		if !jsonErrorContains(data, "(valid: lazy, mincut)") {
			t.Errorf("400 body does not enumerate exactly lazy and mincut: %s", data)
		}
	}

	// A greedy answer never solves the LP, so it reports no formulation.
	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "greedy"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("greedy: status %d: %s", resp.StatusCode, data)
	}
	if out := decodeSolveV2(t, data); out.Formulation != "" {
		t.Errorf("greedy answer reports formulation %q", out.Formulation)
	}
}

// TestV2BatchFormulationPin: a batch's formulation pin reaches every
// item, and an unknown one is each item's error, as on /v2/solve.
func TestV2BatchFormulationPin(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ins := []*malsched.Instance{loadTestdata(t, "chain_n10_m4.json"), loadTestdata(t, "forkjoin_n10_m4.json")}

	for _, f := range []string{"mincut", "dense"} {
		resp, data := postJSON(t, ts.URL+"/v2/batch", BatchRequestV2{Instances: ins, Algo: "paper", Formulation: f})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s batch: status %d: %s", f, resp.StatusCode, data)
		}
		var out BatchResponseV2
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Results) != len(ins) {
			t.Fatalf("%s batch: %d results, want %d", f, len(out.Results), len(ins))
		}
		for i, it := range out.Results {
			switch {
			case f == "mincut" && (it.Result == nil || it.Result.Formulation != "mincut"):
				t.Errorf("mincut batch item %d: %+v, want formulation mincut", i, it)
			case f == "dense" && (it.Result != nil || !containsStr(it.Error, "(valid: lazy, mincut)")):
				t.Errorf("dense batch item %d: %+v, want an error naming lazy and mincut", i, it)
			}
		}
	}
}

func jsonErrorContains(data []byte, sub string) bool {
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &body) != nil {
		return false
	}
	return body.Error != "" && containsStr(body.Error, sub)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestV2FormulationAutoMincut: a wide instance posted with no pins at
// all must auto-route to the paper algorithm AND the solver's internal
// formulation router must pick the parametric min-cut sweep — observable
// in the response's formulation field and in /metrics.
func TestV2FormulationAutoMincut(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// ~500 tasks in layers of 8 on 64 machines: wide enough for the sweep
	// (allot.UseMincut) while n stays well inside the server's paper-tier
	// budget.
	in := generatedInstance(t, 500, 64)

	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	out := decodeSolveV2(t, data)
	if !out.Routed || out.Algo != "paper" {
		t.Fatalf("auto routing picked algo %q (routed=%v): %s", out.Algo, out.Routed, out.RouteReason)
	}
	if out.Formulation != "mincut" {
		t.Fatalf("auto-routed formulation = %q, want mincut (reason %q)", out.Formulation, out.RouteReason)
	}
	if out.Tier != "paper" || out.Makespan <= 0 || out.Guarantee < 1 {
		t.Errorf("implausible answer: tier=%q makespan=%v guarantee=%v", out.Tier, out.Makespan, out.Guarantee)
	}

	// The probe reports the producing formulation for the cached entry.
	presp, pdata := httpGet(t, ts.URL+"/v2/solutions/"+out.Fingerprint)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("probe status %d: %s", presp.StatusCode, pdata)
	}
	var probe SolutionProbe
	if err := json.Unmarshal(pdata, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Formulation != "mincut" {
		t.Errorf("probe formulation = %q, want mincut", probe.Formulation)
	}
}

// TestV2LTWReportsFormulation: LTW solves LP (9) through the paper's
// pipeline, so its answer names the formulation that solved it and the
// solve counts in that formulation's /metrics section. LTW consumes no
// warm state, so an LTW delta request against a paper base is no warm
// hit.
func TestV2LTWReportsFormulation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	resp, data := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("paper base: status %d: %s", resp.StatusCode, data)
	}
	base := decodeSolveV2(t, data)
	edit := TaskEdit{Task: 0, Times: in.Tasks[1].Times}
	resp, data = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Base: base.Fingerprint, Edits: []TaskEdit{edit}, Algo: "ltw"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	out := decodeSolveV2(t, data)
	if out.Algo != "ltw" || out.Formulation != "lazy" || out.Delta != "warm" {
		t.Fatalf("ltw answer: algo %q formulation %q delta %q, want ltw on lazy, a warm-ready delta", out.Algo, out.Formulation, out.Delta)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	var doc struct {
		Formulations map[string]formulationStats `json:"formulations"`
	}
	if err := json.Unmarshal(mdata, &doc); err != nil {
		t.Fatalf("metrics document: %v: %s", err, mdata)
	}
	if st := doc.Formulations["lazy"]; st.Solves != 2 || st.WarmHits != 0 {
		t.Errorf("formulations[lazy] = %+v, want the paper and ltw solves and no warm hit", st)
	}
}

// TestMetricsVersionedShape pins the /metrics redesign: schema_version,
// a per-formulation section with the effort counters, and the old flat
// keys still present as deprecated aliases.
func TestMetricsVersionedShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := loadTestdata(t, "chain_n10_m4.json")
	postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper", Formulation: "mincut"})
	postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Instance: in, Algo: "paper", Formulation: "lazy", NoCache: true})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		SchemaVersion int                         `json:"schema_version"`
		Formulations  map[string]formulationStats `json:"formulations"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics document: %v: %s", err, data)
	}
	if doc.SchemaVersion != metricsSchemaVersion {
		t.Errorf("schema_version = %d, want %d", doc.SchemaVersion, metricsSchemaVersion)
	}
	for _, f := range []string{"mincut", "lazy"} {
		st, ok := doc.Formulations[f]
		if !ok || st.Solves < 1 {
			t.Errorf("formulations[%q] = %+v, want >= 1 solve: %s", f, st, data)
		}
	}
	if st := doc.Formulations["mincut"]; st.Cuts < 1 || st.Rounds < 1 {
		t.Errorf("mincut effort counters empty: %+v", st)
	}

	// Deprecated flat aliases of the version-1 shape.
	flat := metrics(t, ts)
	for _, k := range []string{"requests_v2_solve", "solves_paper", "cache_miss"} {
		if flat[k] < 1 {
			t.Errorf("flat alias %q = %v, want >= 1", k, flat[k])
		}
	}
}

// TestSolutionProbeRejectsNonFinite: NaN/Inf rho values parse as floats
// but can never address a cached slot; they are client errors like a
// non-finite deadline_ms, not silent 404s.
func TestSolutionProbeRejectsNonFinite(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"rho=NaN", "rho=Inf", "rho=-Inf", "rho=bogus", "mu=NaN", "formulation=simplex2000", "rho=2", "mu=0"} {
		resp, data := httpGet(t, ts.URL+"/v2/solutions/deadbeef?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("probe ?%s: status %d, want 400: %s", q, resp.StatusCode, data)
		}
	}
	// A well-formed probe of an unknown identity stays a 404.
	resp, _ := httpGet(t, ts.URL+"/v2/solutions/deadbeef?rho=0.5&formulation=mincut")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("well-formed unknown probe: status %d, want 404", resp.StatusCode)
	}
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}
