package sim

import (
	"testing"
	"time"
)

// The engine recycles fired and stopped timer nodes through a free list.
// These tests pin the safety contract of stale handles: once a timer has
// fired or been stopped, every outstanding handle to it is permanently
// dead, even after the underlying node is reused by a later timer.

// TestRecycledHandleReportsStopped: a handle to a fired timer keeps
// reporting Stopped() == true after its node backs a new pending timer.
func TestRecycledHandleReportsStopped(t *testing.T) {
	e := NewEngine(1, 2)
	old := e.Schedule(time.Millisecond, func() {})
	e.Run(time.Second) // old fires; its node returns to the free list

	if !old.Stopped() {
		t.Fatal("fired timer's handle does not report Stopped")
	}
	// The next schedule reuses the recycled node.
	fresh := e.Schedule(time.Millisecond, func() {})
	if fresh.Stopped() {
		t.Fatal("fresh timer reports Stopped")
	}
	if !old.Stopped() {
		t.Fatal("stale handle came back to life when its node was reused")
	}
	if old == fresh {
		t.Fatal("stale and fresh handles compare equal")
	}
	if old.When() != 0 {
		t.Fatalf("stale handle When() = %v, want 0", old.When())
	}
}

// TestStaleHandleCannotStopRecycledNode: stopping through a stale handle
// must not cancel the new timer occupying the recycled node — the
// "cannot fire twice / cannot be stopped twice" guarantee.
func TestStaleHandleCannotStopRecycledNode(t *testing.T) {
	e := NewEngine(1, 2)
	stale := e.Schedule(time.Millisecond, func() {})
	if !e.Stop(stale) {
		t.Fatal("Stop of pending timer returned false")
	}

	fired := false
	fresh := e.Schedule(time.Millisecond, func() { fired = true })
	if e.Stop(stale) {
		t.Fatal("Stop through a stale handle returned true")
	}
	if e.Reschedule(stale, time.Hour) {
		t.Fatal("Reschedule through a stale handle returned true")
	}
	if fresh.Stopped() {
		t.Fatal("stale Stop/Reschedule killed the recycled node's new timer")
	}
	e.Run(time.Second)
	if !fired {
		t.Fatal("new timer on the recycled node never fired")
	}
}

// TestRecycledNodeCannotFireTwice: a callback scheduled once fires once,
// even when its node is recycled into a timer at the same instant from
// within another callback.
func TestRecycledNodeCannotFireTwice(t *testing.T) {
	e := NewEngine(1, 2)
	count := 0
	e.Schedule(time.Millisecond, func() {
		// This node is already recycled while its callback runs; schedule
		// at the same instant to reuse it immediately.
		e.Schedule(0, func() {})
	})
	e.Schedule(time.Millisecond, func() { count++ })
	e.Run(time.Second)
	if count != 1 {
		t.Fatalf("callback fired %d times, want 1", count)
	}
}

// TestFreeListReuse: after a schedule/fire churn far larger than the
// pending population, the engine holds only a bounded set of nodes.
func TestFreeListReuse(t *testing.T) {
	e := NewEngine(1, 2)
	fn := func() {}
	for i := 0; i < 10000; i++ {
		e.Schedule(time.Millisecond, fn)
		if !e.Step() {
			t.Fatal("Step returned false with a pending timer")
		}
	}
	if got := e.free.Len(); got != 1 {
		t.Fatalf("free list holds %d nodes after serial churn, want 1", got)
	}
	if e.Fired() != 10000 {
		t.Fatalf("fired = %d", e.Fired())
	}
}
