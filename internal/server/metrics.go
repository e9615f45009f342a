package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"malsched"
)

// metricsSchemaVersion names the /metrics JSON shape. Version 2 added the
// "schema_version" field itself and the per-formulation "formulations"
// section; every flat counter key of version 1 is still published at the
// top level as a deprecated alias, so version-1 scrapers keep working.
const metricsSchemaVersion = 2

// formulationStats aggregates phase-1 LP effort per formulation. Cuts and
// Rounds carry the formulation's own meaning (see malsched.Result): lazy
// cuts and separation rounds on the lazy route, parameter breakpoints
// and flow augmentations on the min-cut sweep.
type formulationStats struct {
	Solves   int64 `json:"solves"`
	Cuts     int64 `json:"cuts"`
	Rounds   int64 `json:"rounds"`
	WarmHits int64 `json:"warm_hits"`
	Degrades int64 `json:"degrades"`
}

// formulationMetrics is the mutable server-side aggregate behind the
// /metrics "formulations" section. One mutex is plenty: it is touched once
// per completed solve, never per pivot.
type formulationMetrics struct {
	mu    sync.Mutex
	stats map[string]*formulationStats
}

func (fm *formulationMetrics) bucket(name string) *formulationStats {
	if fm.stats == nil {
		fm.stats = make(map[string]*formulationStats)
	}
	st, ok := fm.stats[name]
	if !ok {
		st = &formulationStats{}
		fm.stats[name] = st
	}
	return st
}

// recordFormulation accounts one finished solve under the formulation that
// actually ran (baselines, which report no formulation, are not LP solves
// and stay out of the section).
func (s *Server) recordFormulation(res *malsched.Result, warm bool) {
	if res == nil || res.Formulation == "" {
		return
	}
	s.forms.mu.Lock()
	defer s.forms.mu.Unlock()
	st := s.forms.bucket(string(res.Formulation))
	st.Solves++
	st.Cuts += int64(res.LPCuts)
	st.Rounds += int64(res.LPRounds)
	if warm {
		st.WarmHits++
	}
}

// recordFormulationDegrade counts a degradation-ladder trigger against the
// request's formulation pin ("auto" when the request let the router pick —
// the failing solve's own formulation is gone with its error).
func (s *Server) recordFormulationDegrade(pin string) {
	if pin == "" {
		pin = "auto"
	}
	s.forms.mu.Lock()
	defer s.forms.mu.Unlock()
	s.forms.bucket(pin).Degrades++
}

// snapshot copies the section for serialisation.
func (fm *formulationMetrics) snapshot() map[string]formulationStats {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	out := make(map[string]formulationStats, len(fm.stats))
	for k, v := range fm.stats {
		out[k] = *v
	}
	return out
}

// handleMetrics serves the versioned /metrics document: schema_version,
// the per-formulation section, and every flat expvar counter of the
// version-1 shape as deprecated top-level aliases.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b []byte
	b = append(b, fmt.Sprintf(`{"schema_version": %d`, metricsSchemaVersion)...)
	if fj, err := json.Marshal(s.forms.snapshot()); err == nil {
		b = append(b, `, "formulations": `...)
		b = append(b, fj...)
	}
	// expvar.Map.Do iterates in sorted key order and every value renders
	// as valid JSON (Int, Map, ...), so the aliases append verbatim.
	s.stats.Do(func(kv expvar.KeyValue) {
		b = append(b, `, `...)
		b = strconv.AppendQuote(b, kv.Key)
		b = append(b, `: `...)
		b = append(b, kv.Value.String()...)
	})
	b = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
