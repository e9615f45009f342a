package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"malsched"
)

const (
	// batchCallers is the number of goroutines feeding the pool, one per
	// worker of the default pool on a 2-CPU machine.
	batchCallers = 2
	// batchSetupsBefore set-ups run before the window and batchSetupsAfter
	// after it; setup_s is the median of all of them. One set-up costs a
	// warm-up solve of 1-2 s per worker, so the repeats are split to
	// sample the host at both ends of the run.
	batchSetupsBefore = 3
	batchSetupsAfter  = 2
	// batchMinSolves is the least number of solves a run times, even on a
	// machine slow enough to need more than the window for them: the
	// median needs 20. It is also the fixed amount of work after which
	// peak_rss_mb is read, since the run holds every result for the
	// checks, and it fixes the tail percentile's level.
	batchMinSolves = 24
	// batchChecked is the number of leading instances of the stream whose
	// makespan ratio is reported, so the ratio is the same on every run of
	// a seed; batchMinSolves >= batchChecked makes every run solve them.
	batchChecked = 8
)

// setUpBatch starts a default pool and warms every worker with one solve.
func setUpBatch(seed int64) (*malsched.Pool, error) {
	pool := malsched.NewPool(0)
	warm := make([]*malsched.Instance, pool.Workers())
	for i := range warm {
		warm[i] = batchInstance(seed, streamBatchWarm, i)
	}
	for i, br := range pool.SolveBatch(context.Background(), warm) {
		if br.Err != nil {
			pool.Close()
			return nil, fmt.Errorf("warm-up solve %d: %w", i, br.Err)
		}
	}
	return pool, nil
}

// timeBatchSetUps sets batch_large up n times, appending each set-up's
// seconds to setups, and returns the last pool; the others are closed.
func timeBatchSetUps(seed int64, n int, setups *[]float64) (*malsched.Pool, error) {
	var pool *malsched.Pool
	for i := 0; i < n; i++ {
		if pool != nil {
			pool.Close()
		}
		t0 := time.Now()
		var err error
		if pool, err = setUpBatch(seed); err != nil {
			return nil, err
		}
		*setups = append(*setups, time.Since(t0).Seconds())
	}
	return pool, nil
}

// checkCertificate checks LB0 <= lower <= makespan <= ratio * lower.
func checkCertificate(lb, lower, makespan, ratio float64) error {
	switch {
	case ratio <= 0:
		return fmt.Errorf("no proven ratio: not a paper answer")
	case lb > lower*(1+eps):
		return fmt.Errorf("lower bound %v is below LB0 %v", lower, lb)
	case lower > makespan*(1+eps):
		return fmt.Errorf("lower bound %v exceeds makespan %v", lower, makespan)
	case makespan > ratio*lower*(1+eps):
		return fmt.Errorf("makespan %v exceeds proven ratio %v x lower bound %v", makespan, ratio, lower)
	}
	return nil
}

// checkBatchResult verifies a library answer: a feasible schedule
// (malsched.Verify) with a consistent certificate.
func checkBatchResult(in *malsched.Instance, res *malsched.Result) (ratio float64, err error) {
	lb := lb0(in)
	if err := malsched.Verify(in, res); err != nil {
		return 0, err
	}
	if err := checkCertificate(lb, res.LowerBound, res.Makespan, res.ProvenRatio); err != nil {
		return 0, err
	}
	return res.Makespan / lb, nil
}

// runBatch is the end-to-end run of batch_large: batchCallers goroutines
// each keep one instance in Pool.SolveBatch until the window closes.
func runBatch(cfg runConfig) (*result, error) {
	var setups []float64
	pool, err := timeBatchSetUps(cfg.seed, batchSetupsBefore, &setups)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var mu sync.Mutex
	var rate, rss float64
	var latency []float64
	solved := map[int]*malsched.Result{}
	errs := make([]error, batchCallers)
	var wg sync.WaitGroup
	for c := 0; c < batchCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			answered, last := 0, start
			for i := c; i < batchMinSolves || time.Now().Before(deadline); i += batchCallers {
				in := batchInstance(cfg.seed, streamBatch, i)
				t := time.Now()
				br := pool.SolveBatch(ctx, []*malsched.Instance{in})[0]
				done := time.Now()
				if br.Err != nil {
					errs[c] = fmt.Errorf("instance %d: %w", i, br.Err)
					break
				}
				answered, last = answered+1, done
				mu.Lock()
				latency = append(latency, ms(done.Sub(t)))
				solved[i] = br.Result
				if len(latency) == batchMinSolves {
					rss = peakRSSMB()
				}
				mu.Unlock()
			}
			mu.Lock()
			defer mu.Unlock()
			if answered > 0 {
				rate += float64(answered) / last.Sub(start).Seconds()
			}
		}(c)
	}
	wg.Wait()
	pool.Close()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if _, err := timeBatchSetUps(cfg.seed, batchSetupsAfter, &setups); err != nil {
		return nil, err
	}

	// Answer checks, outside the timed window: instances are rebuilt from
	// the seed rather than held through the run.
	res := &result{workload: "batch_large"}
	var ratios []float64
	for _, i := range sortedInts(solved) {
		ratio, err := checkBatchResult(batchInstance(cfg.seed, streamBatch, i), solved[i])
		res.attempted++
		switch {
		case err != nil:
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("instance %d: %v", i, err))
		case i < batchChecked:
			ratios = append(ratios, ratio)
		}
	}
	p50, err := percentile(latency, 50)
	if err != nil {
		return nil, fmt.Errorf("solve latency: %w", err)
	}
	// The level is the highest that batchMinSolves samples support, the
	// same on every run however many solves fit in the window.
	tail := tailPercentile(batchMinSolves)
	pt, err := percentile(latency, tail)
	if err != nil {
		return nil, fmt.Errorf("solve latency: %w", err)
	}
	res.add("latency_tail_ms", pt, "ms", len(latency), fmt.Sprintf("p%g of the SolveBatch calls", tail))
	res.add("throughput_per_s", rate, "1/s", len(latency), fmt.Sprintf("instances solved per second, %d callers", batchCallers))
	res.add("makespan_ratio", mean(ratios), "ratio", len(ratios), fmt.Sprintf("mean makespan/LB0 over the first %d instances", batchChecked))
	res.add("peak_rss_mb", rss, "MB", 1, fmt.Sprintf("VmHWM once %d instances were solved", batchMinSolves))
	res.add("setup_s", median(setups), "s", len(setups), fmt.Sprintf("median of %d set-ups before and %d after the window", batchSetupsBefore, batchSetupsAfter))
	res.info = append(res.info, fmt.Sprintf("latency p50 %.1f ms per SolveBatch call of one instance (n=%d)", p50, len(latency)),
		fmt.Sprintf("first set-up of the process: %.4f s", setups[0]),
		fmt.Sprintf("fail_share = %.4f (%d of %d)", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted))
	return res, nil
}

func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
