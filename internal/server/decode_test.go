package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"malsched"
	"malsched/internal/dag"
	"malsched/internal/gen"
)

// envelopes are the four request types decodeBody serves, as fresh
// decode targets.
var envelopes = []func() any{
	func() any { return new(SolveRequest) },
	func() any { return new(SolveRequestV2) },
	func() any { return new(BatchRequest) },
	func() any { return new(BatchRequestV2) },
}

// errString is err's message, "" for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// decodeBoth decodes body into a fresh v through the server's decoder
// and through encoding/json, and fails t on any difference in the error
// message or the decoded value.
func decodeBoth(t *testing.T, body []byte, newV func() any) {
	t.Helper()
	got, want := newV(), newV()
	d := decoders.Get().(*requestDecoder)
	gotErr := d.decode(body, nil, got)
	d.release()
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("%T %q: error %q, encoding/json %q", got, body, errString(gotErr), errString(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T %q: decoded %+v, encoding/json %+v", got, body, got, want)
	}
}

// FuzzDecodeV2 checks the request decoder against encoding/json on
// arbitrary bodies, for each of the four envelopes: the same error
// message and, by reflect.DeepEqual (which tells nil slices from empty
// ones), the same decoded value. The seeds are canonical bodies of all
// four envelopes and every form the fast path hands to encoding/json.
func FuzzDecodeV2(f *testing.F) {
	const inst = `{"m":2,"tasks":[{"Name":"a","Times":[4,2.5]},{"Name":"b","Times":[8,4.5]}],"edges":[[0,1]]}`
	rho, mu := 0.4, 2
	for _, v := range []any{
		SolveRequest{Instance: &malsched.Instance{M: 2, Tasks: []malsched.Task{{Name: "a", Times: []float64{3, 2}}}}},
		SolveRequestV2{Base: "0123abcd", Edits: []TaskEdit{{Task: 0, Times: []float64{5, 2.75}}, {Task: 1, Times: []float64{}}},
			Algo: "paper", DeadlineMS: 12.5, Rho: &rho, Mu: &mu, NoCache: true, IncludeSchedule: true, Formulation: "lazy"},
		BatchRequest{Instances: []*malsched.Instance{nil, {M: 1, Tasks: []malsched.Task{{Times: nil}}, Edges: [][2]int{}}}},
		BatchRequestV2{Instances: []*malsched.Instance{nil}, Formulation: "mincut", Algo: "auto"},
	} {
		f.Add([]byte(mustJSON(v)))
	}
	for _, body := range []string{
		`{"instance":` + inst + `}`,
		`{"instances":[` + inst + `,null],"formulation":"lazy"}`,
		` {"INSTANCE": {"M": 2, "TASKS": [{"name": "a", "times": [1]}]}, "Algo": "ltw"} ` + "\n",
		// Unknown, repeated, non-ASCII and escaped keys.
		`{"pad":1,"instance":` + inst + `}`,
		`{"algo":"paper","algo":"greedy"}`,
		`{"instance":` + inst + `,"instance":{"m":3}}`,
		`{"instance":{"m":2,"taſks":[{"Times":[1,1]}]}}`,
		`{"\u0061lgo":"paper"}`,
		// Escapes, control bytes and invalid UTF-8 in strings.
		`{"algo":"pa\u0070er"}`,
		`{"instance":{"m":1,"tasks":[{"Name":"a\nb","Times":[1]}]}}`,
		"{\"algo\":\"pa\tper\"}",
		"{\"algo\":\"\xff\"}",
		// null where encoding/json does nothing with it.
		`{"algo":null}`,
		`{"no_cache":null}`,
		`{"instance":{"m":null}}`,
		`{"instance":{"m":2,"tasks":[null]}}`,
		`{"instance":{"m":2,"tasks":[{"Name":null,"Times":[1,null]}]}}`,
		`{"instance":{"m":2,"tasks":[{"Times":[1,1]},{"Times":[1,1]}],"edges":[null]}}`,
		// null where it stores nil.
		`{"instance":null,"rho":null,"mu":null,"edits":null}`,
		`{"instance":{"m":1,"tasks":null,"edges":null}}`,
		// Edges of one and three ints.
		`{"instance":{"m":2,"tasks":[{"Times":[1,1]},{"Times":[1,1]}],"edges":[[0]]}}`,
		`{"instance":{"m":2,"tasks":[{"Times":[1,1]},{"Times":[1,1]}],"edges":[[0,1,1]]}}`,
		// Top-level values that are not an object, and trailing bytes.
		`null`, `[]`, `"x"`, `1`, `{} x`, `{}{}`, `{}]`,
		// Number forms.
		`{"instance":{"m":16.0}}`,
		`{"instance":{"m":1e1}}`,
		`{"instance":{"m":-0}}`,
		`{"instance":{"m":99999999999999999999}}`,
		`{"instance":{"m":1,"tasks":[{"Times":[1e400]}]}}`,
		`{"instance":{"m":1,"tasks":[{"Times":[1e-400, -0, 1E+2]}]}}`,
		`{"deadline_ms":01}`,
		`{"deadline_ms":.5}`,
		`{"deadline_ms":Infinity}`,
		`{"mu":1.0}`,
		`{"rho":"0.5"}`,
		// Truncated and empty bodies.
		`{"instance":{"m":2,"tasks":[{"Times":[1,`,
		``,
		`   `,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, newV := range envelopes {
			decodeBoth(t, body, newV)
		}
	})
}

// genInstance turns a DAG into a public instance with named tasks of
// family on m machines.
func genInstance(g *dag.DAG, family gen.TaskFamily, m int, rng *rand.Rand) *malsched.Instance {
	in := &malsched.Instance{M: m, Tasks: gen.Tasks(family, g.N(), m, rng)}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(v) {
			in.Edges = append(in.Edges, [2]int{v, w})
		}
	}
	return in
}

// canonicalInstances are every testdata instance and generated instances
// of every task family on every DAG generator.
func canonicalInstances(t *testing.T) map[string]*malsched.Instance {
	t.Helper()
	out := map[string]*malsched.Instance{}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata instances (%v)", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		in, err := malsched.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(file)] = in
	}
	rng := rand.New(rand.NewSource(19))
	shapes := map[string]func() *dag.DAG{
		"chain":          func() *dag.DAG { return gen.Chain(12) },
		"independent":    func() *dag.DAG { return gen.Independent(9) },
		"forkjoin":       func() *dag.DAG { return gen.ForkJoin(6) },
		"layered":        func() *dag.DAG { return gen.Layered(4, 5, 3, rng) },
		"outtree":        func() *dag.DAG { return gen.OutTree(11, rng) },
		"erdos":          func() *dag.DAG { return gen.ErdosDAG(14, 0.3, rng) },
		"seriesparallel": func() *dag.DAG { return gen.SeriesParallel(6, rng) },
		"cholesky":       func() *dag.DAG { return gen.Cholesky(3) },
	}
	for name, shape := range shapes {
		for _, family := range []gen.TaskFamily{gen.FamilyPowerLaw, gen.FamilyAmdahl, gen.FamilyCapped, gen.FamilyRandom, gen.FamilyMixed} {
			out[fmt.Sprintf("%s_%s", name, family)] = genInstance(shape(), family, 8, rng)
		}
	}
	return out
}

// TestFastDecodeAcceptsCanonical: the fast path must take the canonical
// body of every instance under all four envelopes (a fast path that
// always handed over would pass FuzzDecodeV2 and gain nothing), and
// decode exactly what encoding/json decodes.
func TestFastDecodeAcceptsCanonical(t *testing.T) {
	rho, mu := 0.25, 1
	for name, in := range canonicalInstances(t) {
		edits := []TaskEdit{{Task: len(in.Tasks) - 1, Times: in.Tasks[0].Times}, {Task: 0, Times: []float64{}}}
		for _, req := range []any{
			SolveRequest{Instance: in, Algo: "paper", DeadlineMS: 250, Rho: &rho, Mu: &mu, IncludeSchedule: true},
			SolveRequestV2{Instance: in, Base: in.Fingerprint(), Edits: edits, NoCache: true, Formulation: "lazy"},
			BatchRequest{Instances: []*malsched.Instance{in, nil, in}, Algo: "greedy"},
			BatchRequestV2{Instances: []*malsched.Instance{in}, Formulation: "mincut", Mu: &mu},
		} {
			body := []byte(mustJSON(req))
			newV := func() any { return reflect.New(reflect.TypeOf(req)).Interface() }
			got, want := newV(), newV()
			if err := json.Unmarshal(body, want); err != nil {
				t.Fatal(err)
			}
			var d requestDecoder
			if !d.fast(body, got) {
				t.Errorf("%s: fast path handed the canonical %T body to encoding/json", name, req)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: fast path decoded %T differently from encoding/json", name, req)
			}
		}
	}
}

// TestFastDecodeAllocations: decoding the serve-shape body allocates the
// request's own memory only: per instance the struct, its task list, one
// times slab, one names string and one edge list, and no per-number or
// per-task allocation.
func TestFastDecodeAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	body := []byte(mustJSON(SolveRequestV2{Instance: genInstance(gen.Layered(12, 8, 2, rng), gen.FamilyMixed, 16, rng)}))
	var d requestDecoder // not pooled: the race detector's pool drops items
	allocs := testing.AllocsPerRun(20, func() {
		var req SolveRequestV2
		if err := d.decode(body, nil, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("decoding the n=96 serve body: %v allocations, want at most 8", allocs)
	}
}

// TestDecodedJobOwnsItsMemory: a /v2/jobs request runs after its handler
// has returned the decoder to the pool, and the cache keeps its instance
// as the identity's delta base. Decoding other bodies through the same
// pool must change neither.
func TestDecodedJobOwnsItsMemory(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	h := s.Handler()
	body := func(seed int64) (*malsched.Instance, string) {
		rng := rand.New(rand.NewSource(seed))
		in := genInstance(gen.Layered(6, 8, 2, rng), gen.FamilyMixed, 16, rng)
		return in, mustJSON(SolveRequestV2{Instance: in, Algo: "paper"})
	}
	in, job := body(1)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/jobs", strings.NewReader(job)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var acc JobAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed < 6; seed++ {
		_, other := body(seed)
		var req SolveRequestV2
		if !s.decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v2/solve", strings.NewReader(other)), &req) {
			t.Fatalf("decoding body %d failed", seed)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	st, _ := s.jobs.get(acc.ID)
	for st.State != JobDone && st.State != JobFailed && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		st, _ = s.jobs.get(acc.ID)
	}
	res, ok := st.Result.(*SolveResponseV2)
	if st.State != JobDone || !ok {
		t.Fatalf("job: %+v", st)
	}
	if res.Fingerprint != in.Fingerprint() {
		t.Errorf("job fingerprint %s, its instance's %s", res.Fingerprint, in.Fingerprint())
	}
	e, ok := s.cache.get(qualityKey(in.Fingerprint(), &SolveRequestV2{}))
	if !ok || !reflect.DeepEqual(e.inst, in) {
		t.Errorf("the cached base is not the job's instance (cached: %v)", ok)
	}
}
