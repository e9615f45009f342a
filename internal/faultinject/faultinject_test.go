package faultinject

import (
	"sync"
	"testing"
)

func TestDeterministicPerSeed(t *testing.T) {
	a := New(42).Set(LUFactorFail, 0.05)
	b := New(42).Set(LUFactorFail, 0.05)
	hookA, hookB := a.Hook(LUFactorFail), b.Hook(LUFactorFail)
	for i := 0; i < 10000; i++ {
		if hookA() != hookB() {
			t.Fatalf("decision %d differs between identically seeded injectors", i)
		}
	}
	if a.Fired(LUFactorFail) != b.Fired(LUFactorFail) {
		t.Fatalf("fired counts differ: %d vs %d", a.Fired(LUFactorFail), b.Fired(LUFactorFail))
	}
}

func TestRateRoughlyHolds(t *testing.T) {
	inj := New(7).Set(FlowSweepStall, 0.05)
	hook := inj.Hook(FlowSweepStall)
	const n = 100000
	fired := 0
	for i := 0; i < n; i++ {
		if hook() {
			fired++
		}
	}
	if fired < n/40 || fired > n/10 {
		t.Fatalf("5%% rate fired %d/%d times", fired, n)
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	inj := New(1).Set(SlowSolve, 0)
	hook := inj.Hook(SlowSolve)
	for i := 0; i < 1000; i++ {
		if hook() {
			t.Fatal("rate-0 point fired")
		}
	}
	if inj.Calls(SlowSolve) != 1000 {
		t.Fatalf("calls = %d, want 1000", inj.Calls(SlowSolve))
	}
}

func TestConcurrentTotalIsSeedStable(t *testing.T) {
	// Under concurrency the k-th call races, but the multiset of decisions
	// over N total calls is fixed by (seed, name): the same N hashes are
	// drawn no matter which goroutine draws which.
	const calls = 40000
	total := func(workers int) int64 {
		inj := New(99).Set(CacheShardError, 0.1)
		hook := inj.Hook(CacheShardError)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls/workers; i++ {
					hook()
				}
			}()
		}
		wg.Wait()
		if got := inj.Calls(CacheShardError); got != calls {
			t.Fatalf("calls = %d, want %d", got, calls)
		}
		return inj.Fired(CacheShardError)
	}
	if a, b := total(1), total(8); a != b {
		t.Fatalf("total fired differs by concurrency: %d vs %d", a, b)
	}
}

func TestDifferentPointsIndependent(t *testing.T) {
	inj := New(5).Set(LUFactorFail, 0.5).Set(BGLaneDrop, 0.5)
	ha, hb := inj.Hook(LUFactorFail), inj.Hook(BGLaneDrop)
	same := 0
	for i := 0; i < 1000; i++ {
		if ha() == hb() {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("points look correlated: %d/1000 equal decisions", same)
	}
}
