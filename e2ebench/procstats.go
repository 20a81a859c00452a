package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// procSnapshot is the process-wide counters read at the edges of a
// measured window.
type procSnapshot struct {
	at      time.Time
	mallocs uint64
	bytes   uint64
	numGC   uint32
	cpu     time.Duration
}

func takeSnapshot() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		at:      time.Now(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		cpu:     processCPU(),
	}
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID. Unlike
// getrusage(RUSAGE_THREAD), which advances in scheduler ticks, it reads
// the thread's run time to the nanosecond.
const clockThreadCPUTime = 3

// threadCPU is the calling OS thread's CPU time, or zero if the kernel
// cannot report it. The caller holds its thread (runtime.LockOSThread).
func threadCPU(ts *syscall.Timespec) time.Duration {
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window is the difference between two snapshots.
type window struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint64
	cpu     time.Duration
}

func since(a procSnapshot) window {
	b := takeSnapshot()
	return window{
		wall:    b.at.Sub(a.at),
		mallocs: b.mallocs - a.mallocs,
		bytes:   b.bytes - a.bytes,
		gcs:     uint64(b.numGC - a.numGC),
		cpu:     b.cpu - a.cpu,
	}
}

// add accumulates another window.
func (w *window) add(o window) {
	w.wall += o.wall
	w.mallocs += o.mallocs
	w.bytes += o.bytes
	w.gcs += o.gcs
	w.cpu += o.cpu
}

// setCostMetrics reports the per-request process costs of a window in
// which completed requests finished.
func (r *report) setCostMetrics(w window, completed uint64) {
	n := float64(completed)
	if n == 0 {
		n = 1
	}
	r.set("allocs_per_req", "count", float64(w.mallocs)/n)
	r.set("bytes_per_req", "B", float64(w.bytes)/n)
	r.set("cpu_us_per_req", "us", float64(w.cpu)/float64(time.Microsecond)/n)
	r.set("peak_rss_mb", "MB", peakRSSMB())
}
