// Command loadgen is a closed-loop load driver for malschedd: a fixed
// number of workers each keep exactly one POST /v1/solve in flight,
// replaying instances from testdata/ (plus optionally larger generated
// ones) and reporting throughput, latency percentiles and the server's
// cache behaviour. With -c 500 it holds 500 concurrent in-flight solves —
// the serving scale target of EXPERIMENTS.md E12.
//
//	loadgen -addr http://127.0.0.1:8080 -c 500 -d 20s [-testdata testdata]
//	        [-gen 4] [-algo auto] [-no-cache] [-deadline-ms 0] [-edits 0]
//
// With -edits N > 0 the driver exercises the v2 delta path instead: each
// base instance is solved once through POST /v2/solve (priming the
// server's captured LP state), then every request edits N random tasks of
// a random base and posts base-fingerprint + edits to /v2/solve. The
// report adds the server's delta outcomes (warm = basis transplant, cold
// = full re-solve). With N <= 8 and -algo paper, deltas against bases
// the solver keeps on the lazy simplex (deep DAGs) should be nearly all
// warm; bases wide enough for the min-cut sweep (most of testdata/ and
// the -gen instances) capture no basis, so their deltas re-solve cold
// unless -formulation lazy pins the simplex for every request.
//
// Overload responses (429/503, the server's admission and deadline
// shedding) are counted separately from hard failures and retried with
// jittered exponential backoff when -retries > 0; a shed request that
// stays shed after its retries is reported but does not trip the non-zero
// exit — being asked to back off is the protocol working, not an error.
//
// The exit status is non-zero if any request failed hard (transport error,
// 4xx/5xx outside the shed statuses), so the E12 "zero errors under load"
// criterion is scriptable.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"malsched"
	"malsched/internal/gen"
)

// request mirrors internal/server.SolveRequest / SolveRequestV2 (the cmd
// keeps no import on the server internals; the wire format is the
// contract). Base and Edits are v2-only and stay empty on /v1 requests.
type request struct {
	Instance    *malsched.Instance `json:"instance,omitempty"`
	Base        string             `json:"base,omitempty"`
	Edits       []taskEdit         `json:"edits,omitempty"`
	Algo        string             `json:"algo,omitempty"`
	DeadlineMS  float64            `json:"deadline_ms,omitempty"`
	NoCache     bool               `json:"no_cache,omitempty"`
	Formulation string             `json:"formulation,omitempty"`
}

// taskEdit mirrors internal/server.TaskEdit.
type taskEdit struct {
	Task  int       `json:"task"`
	Times []float64 `json:"times"`
}

// namedInstance is one instance of the replay mix.
type namedInstance struct {
	name string
	in   *malsched.Instance
	fp   string // base fingerprint, filled by prime() in -edits mode
}

type workerStats struct {
	latencies []time.Duration
	outcomes  map[string]int
	deltas    map[string]int
	sheds     int // 429/503 after retries: backpressure, not failure
	degraded  int // answers labeled degraded:true by the fallback ladder
	errs      int
	errSample string
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "malschedd base URL")
	c := flag.Int("c", 16, "concurrent in-flight requests (closed loop)")
	d := flag.Duration("d", 10*time.Second, "run duration")
	testdataDir := flag.String("testdata", "testdata", "directory of instance JSON files")
	genExtra := flag.Int("gen", 0, "additional generated layered n=96 m=16 instances in the mix")
	algo := flag.String("algo", "", "algo field for every request (empty = auto routing)")
	formulation := flag.String("formulation", "", "formulation field for every request: lazy or mincut (empty = auto; v2 only, forces /v2/solve)")
	deadlineMS := flag.Float64("deadline-ms", 0, "deadline_ms field for every request")
	noCache := flag.Bool("no-cache", false, "bypass the server's result cache (cold path)")
	edits := flag.Int("edits", 0, "v2 delta workload: edit this many random tasks of a solved base per request (0 = plain /v1 replay)")
	retries := flag.Int("retries", 0, "retries per request on shed responses (429/503), with jittered exponential backoff")
	seed := flag.Int64("seed", 411, "seed for generated instances and edits")
	flag.Parse()
	if _, err := malsched.ParseFormulation(*formulation); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	mix, err := loadMix(*testdataDir, *genExtra, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}
	var names []string
	for _, ni := range mix {
		names = append(names, ni.name)
	}
	mode := "/v1/solve replay"
	if *edits > 0 {
		mode = fmt.Sprintf("/v2/solve delta (%d edits/request)", *edits)
	}
	fmt.Printf("loadgen: %d workers for %v against %s, %s (%d instances: %v)\n",
		*c, *d, *addr, mode, len(mix), names)

	client := &http.Client{
		Timeout: 5 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        *c,
			MaxIdleConnsPerHost: *c,
			IdleConnTimeout:     90 * time.Second,
		},
	}

	var bodies [][]byte
	url := *addr + "/v1/solve"
	if *edits > 0 || *formulation != "" {
		// Formulation pins are a v2-only request field (v1 ignores
		// unknown fields by contract, which would silently drop the pin).
		url = *addr + "/v2/solve"
	}
	if *edits > 0 {
		if err := prime(client, url, mix, *algo, *formulation); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: priming bases: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, ni := range mix {
			raw, err := json.Marshal(request{Instance: ni.in, Algo: *algo, DeadlineMS: *deadlineMS, NoCache: *noCache, Formulation: *formulation})
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				os.Exit(2)
			}
			bodies = append(bodies, raw)
		}
	}

	var next atomic.Int64 // round-robin instance cursor across workers
	stats := make([]workerStats, *c)
	deadline := time.Now().Add(*d)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(w int, st *workerStats) {
			defer wg.Done()
			st.outcomes = make(map[string]int)
			st.deltas = make(map[string]int)
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			for time.Now().Before(deadline) {
				i := int(next.Add(1))
				var body []byte
				if *edits > 0 {
					base := mix[i%len(mix)]
					raw, err := json.Marshal(request{
						Base:  base.fp,
						Edits: randomEdits(base.in, *edits, rng),
						Algo:  *algo, DeadlineMS: *deadlineMS, NoCache: *noCache,
						Formulation: *formulation,
					})
					if err != nil {
						st.errs++
						continue
					}
					body = raw
				} else {
					body = bodies[i%len(bodies)]
				}
				t0 := time.Now()
				res, err := solveOnce(client, url, body, *retries, rng)
				lat := time.Since(t0)
				if err != nil {
					st.errs++
					if st.errSample == "" {
						st.errSample = err.Error()
					}
					continue
				}
				if res.shed {
					st.sheds++
					continue
				}
				st.latencies = append(st.latencies, lat)
				st.outcomes[res.cache]++
				if res.delta != "" {
					st.deltas[res.delta]++
				}
				if res.degraded {
					st.degraded++
				}
			}
		}(w, &stats[w])
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	outcomes := map[string]int{}
	deltas := map[string]int{}
	sheds, degraded, errs, errSample := 0, 0, 0, ""
	for i := range stats {
		all = append(all, stats[i].latencies...)
		for k, v := range stats[i].outcomes {
			outcomes[k] += v
		}
		for k, v := range stats[i].deltas {
			deltas[k] += v
		}
		sheds += stats[i].sheds
		degraded += stats[i].degraded
		errs += stats[i].errs
		if errSample == "" {
			errSample = stats[i].errSample
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	fmt.Printf("requests: %d ok, %d shed (429/503), %d hard failures in %.1fs — %.1f req/s\n",
		len(all), sheds, errs, elapsed.Seconds(), float64(len(all))/elapsed.Seconds())
	fmt.Printf("cache: hit %d, shared %d, miss %d, bypass %d\n",
		outcomes["hit"], outcomes["shared"], outcomes["miss"], outcomes["bypass"])
	if degraded > 0 {
		fmt.Printf("degraded answers: %d (fallback ladder)\n", degraded)
	}
	if *edits > 0 {
		fmt.Printf("delta: warm %d, cold %d\n", deltas["warm"], deltas["cold"])
	}
	if len(all) > 0 {
		fmt.Printf("latency: p50 %v  p90 %v  p99 %v  max %v\n",
			pct(all, 50), pct(all, 90), pct(all, 99), all[len(all)-1].Round(time.Microsecond))
	}
	reportFormulations(client, *addr)
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d requests failed (first: %s)\n", errs, errSample)
		os.Exit(1)
	}
	// Sheds deliberately do not trip the exit: a 429/503 with Retry-After
	// is the server protecting itself, which is exactly the behaviour
	// under test in overload runs.
}

// reportFormulations scrapes the server's versioned /metrics document
// (schema_version >= 2) and prints the per-formulation phase-1 section —
// how the server's formulation router actually spread this run's solves.
// Silent on older servers or scrape failures: the report is advisory.
func reportFormulations(client *http.Client, addr string) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var doc struct {
		SchemaVersion int `json:"schema_version"`
		Formulations  map[string]struct {
			Solves   int64 `json:"solves"`
			Cuts     int64 `json:"cuts"`
			Rounds   int64 `json:"rounds"`
			WarmHits int64 `json:"warm_hits"`
			Degrades int64 `json:"degrades"`
		} `json:"formulations"`
	}
	if json.NewDecoder(resp.Body).Decode(&doc) != nil || doc.SchemaVersion < 2 {
		return
	}
	names := make([]string, 0, len(doc.Formulations))
	for name := range doc.Formulations {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := doc.Formulations[name]
		fmt.Printf("formulation %-8s solves %d, cuts %d, rounds %d, warm %d, degrades %d\n",
			name, f.Solves, f.Cuts, f.Rounds, f.WarmHits, f.Degrades)
	}
}

// loadMix reads every testdata instance and appends genExtra generated
// layered instances.
func loadMix(dir string, genExtra int, seed int64) ([]namedInstance, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var mix []namedInstance
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		in, err := malsched.ReadJSON(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		mix = append(mix, namedInstance{name: filepath.Base(p), in: in})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < genExtra; i++ {
		g := gen.Layered(12, 8, 2, rng) // n = 96
		in := &malsched.Instance{M: 16, Tasks: gen.Tasks(gen.FamilyMixed, g.N(), 16, rng)}
		for v := 0; v < g.N(); v++ {
			for _, w := range g.Succs(v) {
				in.Edges = append(in.Edges, [2]int{v, w})
			}
		}
		mix = append(mix, namedInstance{name: fmt.Sprintf("gen-layered-%d", i), in: in})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("no instances found under %s and -gen 0", dir)
	}
	return mix, nil
}

// prime solves each base once through /v2/solve, recording its fingerprint
// (and, server-side, the captured LP state the delta workload transplants).
// It pins the same formulation as the deltas: the server keys a base's
// slot by its pin, and a delta finds its base only under its own.
func prime(client *http.Client, url string, mix []namedInstance, algo, formulation string) error {
	for i := range mix {
		raw, err := json.Marshal(request{Instance: mix[i].in, Algo: algo, Formulation: formulation})
		if err != nil {
			return err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", mix[i].name, resp.StatusCode, truncate(data, 200))
		}
		fp, err := extract(data, "fingerprint")
		if err != nil {
			return fmt.Errorf("%s: %w", mix[i].name, err)
		}
		mix[i].fp = fp
	}
	return nil
}

// randomEdits rescales `count` distinct random tasks of base by up to
// ±10%, preserving each time vector's shape so the edit stays within the
// delta path's structure contract.
func randomEdits(base *malsched.Instance, count int, rng *rand.Rand) []taskEdit {
	n := len(base.Tasks)
	if count > n {
		count = n
	}
	out := make([]taskEdit, count)
	seen := make(map[int]bool, count)
	for e := 0; e < count; e++ {
		task := rng.Intn(n)
		for seen[task] {
			task = rng.Intn(n)
		}
		seen[task] = true
		factor := 0.9 + 0.2*rng.Float64()
		src := base.Tasks[task].Times
		times := make([]float64, len(src))
		for i, v := range src {
			times[i] = v * factor
		}
		out[e] = taskEdit{Task: task, Times: times}
	}
	return out
}

// solveResult is one request's classified outcome: a 200 with its labels,
// or shed (429/503 still standing after the retry budget).
type solveResult struct {
	cache    string
	delta    string
	degraded bool
	shed     bool
}

// solveOnce posts one request and extracts the response's cache outcome
// (and delta/degraded labels, when present) without a full JSON decode
// (the driver shares a machine with the server in the E12 setup;
// client-side parsing must stay out of the way). Shed responses (429/503)
// are retried up to `retries` times with jittered exponential backoff —
// the jitter decorrelates retry storms across the driver's workers — and
// classified shed, never as errors, when they persist.
func solveOnce(client *http.Client, url string, body []byte, retries int, rng *rand.Rand) (solveResult, error) {
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return solveResult{}, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return solveResult{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			if attempt < retries {
				base := 25 * time.Millisecond << uint(attempt)
				time.Sleep(base + time.Duration(rng.Int63n(int64(base))))
				continue
			}
			return solveResult{shed: true}, nil
		}
		if resp.StatusCode != http.StatusOK {
			return solveResult{}, fmt.Errorf("status %d: %s", resp.StatusCode, truncate(data, 200))
		}
		cache, err := extract(data, "cache")
		if err != nil {
			return solveResult{}, err
		}
		delta, _ := extract(data, "delta") // v1 responses have none
		return solveResult{
			cache:    cache,
			delta:    delta,
			degraded: bytes.Contains(data, []byte(`"degraded":true`)),
		}, nil
	}
}

// extract pulls the string value of a top-level field out of a response
// body by marker scan.
func extract(data []byte, field string) (string, error) {
	marker := `"` + field + `":"`
	i := bytes.Index(data, []byte(marker))
	if i < 0 {
		return "", fmt.Errorf("response without %s field: %s", field, truncate(data, 200))
	}
	rest := data[i+len(marker):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", fmt.Errorf("unterminated %s field", field)
	}
	return string(rest[:j]), nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

// pct returns the p-th percentile of sorted latencies (nearest rank).
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted)+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx].Round(time.Microsecond)
}
