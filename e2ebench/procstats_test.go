package main

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

// threadCPU counts the time the thread computes, not the time it sleeps,
// and resolves below a scheduler tick.
func TestThreadCPUCountsOnlyRunTime(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ts syscall.Timespec
	start := threadCPU(&ts)
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); {
	}
	spun := threadCPU(&ts)
	time.Sleep(20 * time.Millisecond)
	slept := threadCPU(&ts)
	if busy := spun - start; busy < 2*time.Millisecond || busy > 25*time.Millisecond {
		t.Errorf("20 ms of spinning read as %v of thread CPU", busy)
	}
	if idle := slept - spun; idle > 5*time.Millisecond {
		t.Errorf("20 ms of sleep read as %v of thread CPU", idle)
	}
	a, b := threadCPU(&ts), threadCPU(&ts)
	if d := b - a; d <= 0 || d > time.Millisecond {
		t.Errorf("two back-to-back reads differ by %v, want a positive sub-tick step", d)
	}
}
