package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malsched/internal/solver"
)

// waitFor polls cond for up to 5s; background jobs have no completion
// latch by design, so tests observe their side effects.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTryBackgroundRuns(t *testing.T) {
	p := New(2)
	defer p.Close()
	var ran atomic.Int32
	for i := 0; i < 4; i++ {
		if !p.TryBackground(func(ws *solver.Workspace) error {
			if ws == nil {
				t.Error("background job got a nil workspace")
			}
			ran.Add(1)
			return nil
		}) {
			t.Fatalf("enqueue %d rejected with an empty lane", i)
		}
	}
	waitFor(t, func() bool { return ran.Load() == 4 })
}

// TestTryBackgroundDropsWhenFull: with every worker parked and the lane at
// capacity, further enqueues must report false instead of blocking.
func TestTryBackgroundDropsWhenFull(t *testing.T) {
	p := New(1)
	defer p.Close()

	// Park the lone worker on a foreground job so nothing drains the lane.
	release, started := make(chan struct{}), make(chan struct{})
	var fg sync.WaitGroup
	fg.Add(1)
	go func() {
		defer fg.Done()
		p.RunOne(context.Background(), func(ws *solver.Workspace) error {
			close(started)
			<-release
			return nil
		})
	}()
	// Wait for the job itself to run: an empty p.jobs also holds before
	// the goroutine has enqueued it, and an idle worker drains the lane.
	<-started

	depth := cap(p.bg)
	for i := 0; i < depth; i++ {
		if !p.TryBackground(func(ws *solver.Workspace) error { return nil }) {
			t.Fatalf("enqueue %d/%d rejected below capacity", i, depth)
		}
	}
	if p.TryBackground(func(ws *solver.Workspace) error { return nil }) {
		t.Error("enqueue past capacity accepted — TryBackground blocked or the lane is unbounded")
	}
	close(release)
	fg.Wait()
}

// TestBackgroundYieldsToForeground: a worker holding a full background
// backlog must still pick up foreground work promptly (the lane only
// drains when no foreground job is waiting at pick time).
func TestBackgroundYieldsToForeground(t *testing.T) {
	p := New(1)
	defer p.Close()

	var bgDone atomic.Int32
	slow := func(ws *solver.Workspace) error {
		time.Sleep(2 * time.Millisecond)
		bgDone.Add(1)
		return nil
	}
	for i := 0; i < 8; i++ {
		if !p.TryBackground(slow) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	// The foreground job must not wait for all eight 2ms background jobs.
	start := time.Now()
	if err := p.RunOne(context.Background(), func(ws *solver.Workspace) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if wait := time.Since(start); wait > 8*2*time.Millisecond {
		t.Errorf("foreground job waited %v behind the background backlog", wait)
	}
	waitFor(t, func() bool { return bgDone.Load() == 8 })
}

func TestTryBackgroundAfterClose(t *testing.T) {
	p := New(1)
	p.Close()
	if p.TryBackground(func(ws *solver.Workspace) error { return nil }) {
		t.Error("closed pool accepted a background job")
	}
}

// TestBackgroundPanicIsolated: a panicking background job must not kill
// its worker.
func TestBackgroundPanicIsolated(t *testing.T) {
	p := New(1)
	defer p.Close()
	if !p.TryBackground(func(ws *solver.Workspace) error { panic("boom") }) {
		t.Fatal("enqueue rejected")
	}
	var ran atomic.Bool
	if !p.TryBackground(func(ws *solver.Workspace) error { ran.Store(true); return nil }) {
		t.Fatal("second enqueue rejected")
	}
	waitFor(t, func() bool { return ran.Load() })
	// The worker must also still serve foreground jobs.
	if err := p.RunOne(context.Background(), func(ws *solver.Workspace) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
