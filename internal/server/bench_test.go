package server

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"malsched"
	"malsched/internal/gen"
)

// benchInstance is a serving-sized instance (the load mix of E12).
func benchInstance(b *testing.B) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(411))
	g := gen.Layered(12, 8, 2, rng) // n = 96 tasks
	in := &malsched.Instance{M: 16, Tasks: gen.Tasks(gen.FamilyMixed, g.N(), 16, rng)}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(v) {
			in.Edges = append(in.Edges, [2]int{v, w})
		}
	}
	raw, err := json.Marshal(SolveRequest{Instance: in})
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

func serveOnce(b *testing.B, h http.Handler, body string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkServe measures the request path of POST /v1/solve end to end
// (decode, route, cache, pool solve, encode) without network or syscalls:
// solve_cold is the cache-bypassing full solve, solve_hit the
// content-addressed hit path, solve_hit_parallel the hit path under
// GOMAXPROCS-way client concurrency. The gap between cold and hit is the
// cache's value; E12 in EXPERIMENTS.md records it. decode_n96 and
// decode_n500 time decodeBody alone on the serve body and on a ~300 KB
// n=500/m=32 body (E19).
func BenchmarkServe(b *testing.B) {
	body := string(benchInstance(b))
	coldBody := strings.Replace(body, `{"instance"`, `{"no_cache":true,"instance"`, 1)

	b.Run("solve_cold", func(b *testing.B) {
		s := New(Config{Workers: 1})
		defer s.Close()
		h := s.Handler()
		serveOnce(b, h, coldBody) // warm the worker's workspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, h, coldBody)
		}
	})

	b.Run("solve_hit", func(b *testing.B) {
		s := New(Config{Workers: 1})
		defer s.Close()
		h := s.Handler()
		serveOnce(b, h, body) // populate the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, h, body)
		}
	})

	b.Run("solve_hit_parallel", func(b *testing.B) {
		s := New(Config{})
		defer s.Close()
		h := s.Handler()
		serveOnce(b, h, body)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				serveOnce(b, h, body)
			}
		})
	})

	b.Run("decode_n96", func(b *testing.B) { benchDecode(b, []byte(body)) })
	rng := rand.New(rand.NewSource(412))
	large := genInstance(gen.Layered(25, 20, 3, rng), gen.FamilyMixed, 32, rng) // n = 500 tasks
	largeBody, err := json.Marshal(SolveRequestV2{Instance: large})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode_n500", func(b *testing.B) { benchDecode(b, largeBody) })
}

// benchDecode times decodeBody alone on body, a v2 solve request: the
// capped read and the decode, with the request built once and its body
// rewound per iteration.
func benchDecode(b *testing.B, body []byte) {
	s := New(Config{Workers: 1})
	defer s.Close()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v2/solve", rd)
	w := httptest.NewRecorder()
	decode := func() {
		rd.Reset(body)
		var v SolveRequestV2
		if !s.decodeBody(w, req, &v) {
			b.Fatalf("decode failed: %s", w.Body.Bytes())
		}
	}
	// One untimed decode grows the pooled decoder's buffers, so a
	// one-iteration run (make bench-json) times the steady state.
	decode()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}

// counter reads one of the server's expvar counters (0 when never touched).
func counter(s *Server, name string) float64 {
	if v, ok := s.stats.Get(name).(*expvar.Int); ok {
		return float64(v.Value())
	}
	return 0
}

func serveOnceV2(b *testing.B, h http.Handler, body string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v2/solve", strings.NewReader(body))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkServeDelta measures the v2 delta re-solve path end to end at
// the scale the API contract targets (n = 500 tasks): "warm" edits 4
// tasks of a cached base (within the k = 8 budget, so the captured LP
// basis transplants), "cold" edits k+1 tasks (over budget, full re-solve
// through the same endpoint). The base and every delta pin the lazy
// formulation: this n=500/m=32 shape auto-routes to the min-cut sweep,
// which keeps no basis, so unpinned it would never be delta-ready. Every
// request carries no_cache so each iteration really solves; the
// delta_warm/op and delta_cold/op metrics certify which path ran
// (benchgate shows them next to the timings), and a scenario whose
// counters contradict its name fails. The warm/cold ns/op gap is the
// delta path's value; the contract wants >= 5x.
func BenchmarkServeDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(412))
	g := gen.Layered(25, 20, 2, rng) // n = 500 tasks
	in := &malsched.Instance{M: 32, Tasks: gen.Tasks(gen.FamilyMixed, g.N(), 32, rng)}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(v) {
			in.Edges = append(in.Edges, [2]int{v, w})
		}
	}

	// deltaBody edits `count` distinct tasks, scaled by a salt-dependent
	// factor so successive iterations address different fingerprints.
	deltaBody := func(baseFP string, count, salt int) string {
		edits := make([]TaskEdit, count)
		factor := 1 + float64(salt%89+1)/1000
		for e := range edits {
			task := (salt + e) % len(in.Tasks)
			times := make([]float64, len(in.Tasks[task].Times))
			for i, v := range in.Tasks[task].Times {
				times[i] = v * factor
			}
			edits[e] = TaskEdit{Task: task, Times: times}
		}
		raw, err := json.Marshal(SolveRequestV2{Base: baseFP, Edits: edits, Algo: "paper", NoCache: true, Formulation: "lazy"})
		if err != nil {
			b.Fatal(err)
		}
		return string(raw)
	}

	run := func(b *testing.B, count int, path string) {
		s := New(Config{Workers: 1})
		defer s.Close()
		h := s.Handler()

		raw, err := json.Marshal(SolveRequestV2{Instance: in, Algo: "paper", Formulation: "lazy"})
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/solve", strings.NewReader(string(raw))))
		if rec.Code != http.StatusOK {
			b.Fatalf("base solve: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var base SolveResponseV2
		if err := json.Unmarshal(rec.Body.Bytes(), &base); err != nil {
			b.Fatal(err)
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnceV2(b, h, deltaBody(base.Fingerprint, count, i))
		}
		b.StopTimer()
		b.ReportMetric(counter(s, "delta_warm")/float64(b.N), "delta_warm/op")
		b.ReportMetric(counter(s, "delta_cold")/float64(b.N), "delta_cold/op")
		if got := counter(s, "delta_"+path); got != float64(b.N) {
			b.Fatalf("%d of %d requests took the %s delta path", int(got), b.N, path)
		}
	}

	b.Run(fmt.Sprintf("warm_edits4_n%d_lazy", len(in.Tasks)), func(b *testing.B) { run(b, 4, "warm") })
	b.Run(fmt.Sprintf("cold_edits%d_n%d_lazy", maxDeltaEdits+1, len(in.Tasks)), func(b *testing.B) { run(b, maxDeltaEdits+1, "cold") })
}
