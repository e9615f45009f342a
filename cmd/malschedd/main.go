// Command malschedd is the malsched scheduling daemon: an HTTP JSON API
// over a shared solver pool with a content-addressed result cache and
// adaptive solver routing (see internal/server and DESIGN.md §8).
//
//	malschedd [-addr :8080] [-workers 0] [-cache-entries 4096]
//	          [-max-jobs 1024] [-max-body 268435456] [-max-pending 1024]
//
// Endpoints:
//
//	POST /v1/solve     {"instance": {...}, "algo": "auto", ...}
//	POST /v1/batch     {"instances": [{...}, ...]}
//	POST /v1/jobs      async submit -> {"id": ...}
//	GET  /v1/jobs/{id} poll
//	GET  /healthz      liveness: is the process up
//	GET  /readyz       readiness: accepting new work? 503 while draining
//	GET  /metrics      counters (also under expvar at /debug/vars)
//
// SIGINT/SIGTERM flip /readyz to 503 (so load balancers stop routing here)
// and then drain in-flight requests before exiting. Overload responses (429
// from the admission queue, 503 from job-slot pressure or deadline
// shedding) carry a Retry-After header.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"malsched/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 4096, "resident solution cache bound (negative disables)")
	maxJobs := flag.Int("max-jobs", 1024, "finished async jobs kept queryable")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes (0 = 256 MiB default; raise for million-task instances, negative disables)")
	maxPending := flag.Int("max-pending", 0, "admission bound: max requests waiting for a solver worker (0 = 1024 default); excess is shed with 429")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
	flag.Parse()

	srv := server.New(server.Config{
		Workers:      *workers,
		CacheEntries: *cacheEntries,
		MaxJobs:      *maxJobs,
		MaxBodyBytes: *maxBody,
		MaxPending:   *maxPending,
	})
	defer srv.Close()
	expvar.Publish("malsched", srv.Stats())

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	hs := &http.Server{Addr: *addr, Handler: mux}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("malschedd: listening on %s (%d workers, cache %d entries)",
		*addr, srv.Workers(), *cacheEntries)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("malschedd: %v, draining for up to %v", sig, *drain)
		srv.SetDraining(true) // flip /readyz first so balancers stop routing here
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("malschedd: drain incomplete: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "malschedd: %v\n", err)
			os.Exit(1)
		}
	}
}
