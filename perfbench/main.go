// Command perfbench is malsched's end-to-end benchmark. One run measures
// one workload in a fresh process and prints every metric by name, unit
// and sample count; the last line of its output is one JSON object:
//
//	go run . --workload serve_hit --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for the reasons behind each):
//
//	serve_hit   POST /v2/solve of 32 primed n=96 instances: every request a cache hit
//	serve_miss  POST /v2/solve of new identities: fresh n=96, warm delta, fresh n=500
//	batch_large Pool.SolveBatch of n=2000/m=64 instances, no HTTP
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// replays a fixed seeded sample of the workload, times the calls into each
// layer from outside, and reports the per-layer metrics. The program is
// driven only through its public surfaces; it is never modified.
//
// Any failed answer check makes the run exit with status 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"malsched/internal/server"
)

// watchdogSlack is how long a run may take beyond its measured window:
// set-ups, batch_large's solves past the window and answer checks take
// well under a minute on a 2-CPU machine.
const watchdogSlack = 150 * time.Second

type runConfig struct {
	seed    int64
	seconds float64
	// server configures the serving workloads' server; the benchmark
	// runs the zero value, the default configuration.
	server server.Config
	// wrap, when not nil, wraps the served handler: tests use it to
	// corrupt answers and check that the run fails.
	wrap func(http.Handler) http.Handler
}

// metric is one reported number with the samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// result is what one run reports.
type result struct {
	workload          string
	attempted, failed int
	metrics           []metric
	// problems are failed checks; any makes the run incorrect.
	problems []string
	// info lines are printed with the report but are not metrics.
	info []string
	// table is the traced run's per-layer report.
	table []string
}

func (r *result) add(name string, value float64, unit string, n int, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, n, note})
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

var workloads = map[string]struct {
	// procs is the run's GOMAXPROCS; 0 keeps the default, one per CPU.
	procs      int
	run, trace func(runConfig) (*result, error)
}{
	"serve_hit": {
		procs: serveProcs,
		run:   func(c runConfig) (*result, error) { return runServe(serveHit, c) },
		trace: func(c runConfig) (*result, error) { return traceServe(serveHit, c) },
	},
	"serve_miss": {
		procs: serveProcs,
		run:   func(c runConfig) (*result, error) { return runServe(serveMiss, c) },
		trace: func(c runConfig) (*result, error) { return traceServe(serveMiss, c) },
	},
	"batch_large": {run: runBatch, trace: traceBatch},
}

func main() {
	workload := flag.String("workload", "", "workload: serve_hit, serve_miss or batch_large")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 30, "measured seconds of an end-to-end run")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload serve_hit|serve_miss|batch_large, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	// A call into the program that never returns fails the run instead of
	// hanging it.
	limit := time.Duration(*seconds*float64(time.Second)) + watchdogSlack
	time.AfterFunc(limit, func() {
		fmt.Printf("  FAILED CHECK: %s seed %d did not finish within %v: a call into the program did not return\n", *workload, *seed, limit)
		os.Exit(1)
	})
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds}
	run := w.run
	if *traced == 1 {
		run = w.trace
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	if err := report(out, res, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// report prints the human-readable report and, last, the JSON result line.
func report(w *bufio.Writer, res *result, seed int64) error {
	fmt.Fprintf(w, "workload %s seed %d\n", res.workload, seed)
	for _, line := range res.table {
		fmt.Fprintln(w, line)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-28s %14s %-6s n=%-6d %s\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.n, m.note)
	}
	for _, line := range res.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if res.correct() {
				return fmt.Errorf("metric %s is not finite", m.name)
			}
			// A failed request is an infinite latency; the line of a
			// failed run must still parse, and its numbers count for
			// nothing.
			v = -1
		}
		metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
