package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"malsched"
)

// FuzzServeV2 posts arbitrary bodies to /v2/solve and /v2/batch through
// the handler in memory. Hostile input gets a client error (400, 413) or a
// shed (429, 503), never a 500 or a panic, and a 200 body always decodes.
// The seeds are a plain, a delta and a batch request, plus one body past
// each input limit the server checks before solving: rho outside [0,1],
// mu above m, and total work past the float64 range.
func FuzzServeV2(f *testing.F) {
	const inst = `{"m": 4, "tasks": [{"Name": "a", "Times": [4, 2.2, 1.6, 1.3]}, {"Name": "b", "Times": [8, 4.4, 3.2, 2.6]}], "edges": [[0, 1]]}`
	var base malsched.Instance
	if err := json.Unmarshal([]byte(inst), &base); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		batch bool
		body  string
	}{
		{false, `{"instance": ` + inst + `}`},
		{false, `{"base": "` + base.Fingerprint() + `", "edits": [{"task": 0, "times": [5, 2.75, 2, 1.6]}], "algo": "paper"}`},
		{true, `{"instances": [` + inst + `, ` + inst + `], "algo": "paper", "formulation": "mincut"}`},
		{false, `{"instance": ` + inst + `, "rho": 2}`},
		{false, `{"instance": ` + inst + `, "mu": 99}`},
		{false, `{"instance": ` + overflowInstance + `}`},
	} {
		f.Add(seed.batch, []byte(seed.body))
	}

	s := New(Config{Workers: 2, CacheEntries: 256, MaxBodyBytes: 1 << 16})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path, out := "/v2/solve", any(new(SolveResponseV2))
		if batch {
			path, out = "/v2/batch", new(BatchResponseV2)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
			if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
				t.Fatalf("%s: 200 with a body that does not decode (%v): %q", path, err, w.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body.Bytes())
		}
	})
}
