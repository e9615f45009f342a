package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"malsched"
	"malsched/internal/cancelflag"
)

// FaultCacheShard is the cache fault-injection hook (internal/faultinject);
// nil in production. When it fires, do() fails open to a direct compute and
// get() reports a miss — a broken shard degrades to extra solves, never to
// wrong or missing answers.
var FaultCacheShard func() bool

// solution is what the cache stores per canonical request: the solver
// result together with how it was produced. Entries are immutable once
// inserted — handlers read fields but never write, so one entry is safely
// shared by any number of concurrent responses.
type solution struct {
	res *malsched.Result
	// algo is the algorithm that produced res (already routed).
	algo malsched.Algorithm
	// tier is the quality tier algo belongs to (tierOf(algo)); the cache
	// never replaces an entry with a lower- or equal-tier one.
	tier tier
	// inst is the solved instance, kept on quality entries so a later
	// delta request can materialise "base + edits" from the fingerprint
	// alone. nil on exact-key entries (the instance is in the request).
	inst *malsched.Instance
	// state is the warm-start handle of a paper solve run with capture
	// (nil otherwise); the delta path transplants it onto edited
	// instances with the same structure fingerprint.
	state *malsched.SolverState
	// coldNS is the wall time of the originating solve, reported alongside
	// cache hits so clients can see what the hit saved them.
	coldNS int64
	// degraded is the failure class that sent the primary solve down the
	// degradation ladder ("" for a clean solve). A labelled answer is
	// valid for its tier, so it may fill a quality slot, but do never
	// stores it under the flight's key: that key promises the answer of
	// the algorithm and parameters it names.
	degraded string
}

// solved wraps a finished solve of algo on in as a cache solution timed
// from start.
func solved(res *malsched.Result, algo malsched.Algorithm, in *malsched.Instance, start time.Time) *solution {
	return &solution{
		res: res, algo: algo, tier: tierOf(algo),
		inst: in, state: res.State, coldNS: int64(time.Since(start)),
	}
}

// cache is a content-addressed solution cache: a sharded LRU with
// per-key singleflight. Keys are canonical request identities
// (Instance.Fingerprint + algorithm + parameter overrides, see exactKey
// and qualityKey), so any two byte-different submissions of the same problem
// meet in the same entry. Sharding keeps lock hold times short under the
// hundreds of concurrent requests the serving layer is built for;
// singleflight collapses a thundering herd of identical submissions into
// one solve whose result every waiter shares.
type cache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int                      // max resident entries in this shard
	order    *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element whose Value is *cacheEntry
	inflight map[string]*flight
}

type cacheEntry struct {
	key string
	sol *solution
}

// flight is one in-progress computation of a key. Waiters block on done;
// val/err are written exactly once before done is closed.
type flight struct {
	done chan struct{}
	sol  *solution
	err  error
}

// newCache builds a cache of at most `entries` resident solutions spread
// over `shards` shards (both floored at 1; callers disable caching by not
// constructing one). Capacity is split evenly; the remainder goes to the
// first shards so the total is exact.
func newCache(entries, shards int) *cache {
	if shards < 1 {
		shards = 1
	}
	if entries < 1 {
		entries = 1
	}
	if shards > entries {
		shards = entries
	}
	c := &cache{shards: make([]cacheShard, shards)}
	for i := range c.shards {
		cap := entries / shards
		if i < entries%shards {
			cap++
		}
		c.shards[i] = cacheShard{
			capacity: cap,
			order:    list.New(),
			items:    make(map[string]*list.Element),
			inflight: make(map[string]*flight),
		}
	}
	return c
}

// shardFor maps a key to its shard with an FNV-1a hash over the key bytes.
func (c *cache) shardFor(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// outcome classifies how do() satisfied a lookup, for metrics and the
// response's cache field.
type outcome int

const (
	outcomeHit    outcome = iota // resident entry
	outcomeMiss                  // this call ran the solve
	outcomeShared                // waited on another call's solve
)

func (o outcome) String() string {
	switch o {
	case outcomeHit:
		return "hit"
	case outcomeShared:
		return "shared"
	}
	return "miss"
}

// do returns the solution for key, computing it with fn if absent.
// Concurrent calls for the same key run fn once and share its result;
// errors are returned to every waiter of that flight but are not cached,
// so a later call retries. Neither is a degraded answer (one fn produced
// on the ladder): every waiter of its flight shares it, and the next call
// runs fn again. A nil cache always computes (bypass).
//
// ctx is the *waiter's* context: a waiter whose flight leader was cancelled
// inherits the leader's context error, which says nothing about this
// request — so a live waiter retries the lookup (becoming the new leader,
// or finding the entry another retry cached) instead of failing a healthy
// request with someone else's cancellation.
func (c *cache) do(ctx context.Context, key string, fn func() (*solution, error)) (*solution, outcome, error) {
	if c == nil || (FaultCacheShard != nil && FaultCacheShard()) {
		sol, err := fn()
		return sol, outcomeMiss, err
	}
	s := c.shardFor(key)

	for {
		s.mu.Lock()
		if el, ok := s.items[key]; ok {
			s.order.MoveToFront(el)
			sol := el.Value.(*cacheEntry).sol
			s.mu.Unlock()
			return sol, outcomeHit, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			<-f.done
			if isCancellation(f.err) && ctx != nil && ctx.Err() == nil {
				continue
			}
			return f.sol, outcomeShared, f.err
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()

		f.sol, f.err = fn()

		s.mu.Lock()
		delete(s.inflight, key)
		if f.err == nil && f.sol.degraded == "" {
			s.insertLocked(key, f.sol)
		}
		s.mu.Unlock()
		close(f.done)
		return f.sol, outcomeMiss, f.err
	}
}

// isCancellation reports whether err came from a cancelled or expired
// context (including the solver's internal cancellation sentinel).
func isCancellation(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, cancelflag.ErrCanceled))
}

// insertLocked adds key -> sol and evicts the shard's least recently used
// entries down to capacity, tier-monotonically: an entry is only replaced
// by a strictly higher-tier solution. Racing same-tier inserts keep the
// first writer (the answers are interchangeable, and first-writer-wins
// keeps what repeat readers see stable); a refinement overwrites a greedy
// entry; a late greedy solve can never clobber a paper answer. Caller
// holds s.mu.
func (s *cacheShard) insertLocked(key string, sol *solution) {
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		if e := el.Value.(*cacheEntry); sol.tier > e.sol.tier {
			e.sol = sol
		}
		return
	}
	s.items[key] = s.order.PushFront(&cacheEntry{key: key, sol: sol})
	for s.order.Len() > s.capacity {
		last := s.order.Back()
		s.order.Remove(last)
		delete(s.items, last.Value.(*cacheEntry).key)
	}
}

// get returns the resident entry for key (bumping its recency) without
// computing anything. In-flight computations are not consulted.
func (c *cache) get(key string) (*solution, bool) {
	if c == nil || (FaultCacheShard != nil && FaultCacheShard()) {
		return nil, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).sol, true
}

// putIfBetter inserts sol under key tier-monotonically (see insertLocked)
// and reports whether sol is now the resident entry — false exactly when
// an entry of equal or higher tier was already there, or the cache is
// disabled.
func (c *cache) putIfBetter(key string, sol *solution) bool {
	if c == nil {
		return false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(key, sol)
	return s.items[key].Value.(*cacheEntry).sol == sol
}

// len reports the total number of resident entries (for tests and /metrics).
func (c *cache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
