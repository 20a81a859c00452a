package main

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) *hist {
		h := &hist{}
		for i := 1; i <= n; i++ {
			h.record(time.Duration(i) * time.Microsecond)
		}
		return h
	}
	cases := []struct {
		n    int
		q    float64
		want float64 // ms
		ok   bool
	}{
		{1000, 0.99, 0.990, true},   // exactly ten samples beyond p99
		{999, 0.99, 0.990, false},   // nine beyond: not reportable
		{10000, 0.999, 9.990, true}, // ten beyond p99.9
		{5000, 0.999, 4.995, false}, // five beyond
		{100, 0.50, 0.050, true},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := mk(c.n).percentile(c.q)
		if math.Abs(got-c.want) > c.want/200 || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v (±0.5%%), %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestHistResolution(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 127, 128, 129, 1025, 123456789, time.Minute} {
		h := &hist{}
		h.record(d)
		got, _ := h.percentile(0.5)
		want := float64(d) / 1e6
		if math.Abs(got-want) > want/200+1e-6 {
			t.Errorf("%v reads back as %vms, want %vms within 0.5%%", d, got, want)
		}
	}
}

// A stalled request holds the only sender, so the requests due behind
// it are charged the wait from their due time, and the generator
// reports how late it sent them.
func TestOpenLoopChargesWaitFromDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	var calls atomic.Int64
	do := func(context.Context) error {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		return nil
	}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	g := newGenerator(1).openLoop(due, do)
	if g.completed() != 3 || g.failed != 0 {
		t.Fatalf("completed %d failed %d, want 3 and 0", g.completed(), g.failed)
	}
	stallMS := float64(stall / time.Millisecond)
	// The two queued requests waited until the stall ended (≈90 and
	// ≈80 ms) and the stalled one took the full stall, so even the
	// fastest of the three took about 80 ms from its due time.
	if fastest, _ := g.lat.percentile(0); fastest < stallMS-20-5 {
		t.Errorf("fastest latency %.1fms does not charge the stall to the queued requests", fastest)
	}
	if latest, _ := g.late.percentile(1); latest < stallMS-10-5 {
		t.Errorf("latest send %.1fms behind due does not show the sender ran behind", latest)
	}
	// The service time of the queued requests excludes their wait.
	if mean := g.serviceMeanMS(); mean > stallMS/2 {
		t.Errorf("mean send→done %.1fms includes queueing", mean)
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	do := func(context.Context) error { time.Sleep(2 * time.Millisecond); return nil }
	g := newGenerator(2).closedLoop(50*time.Millisecond, do)
	if g.completed() == 0 || g.late.n != 0 {
		t.Fatalf("completed %d, late samples %d", g.completed(), g.late.n)
	}
	lo, _ := g.lat.percentile(0)
	hi, _ := g.lat.percentile(1)
	if lo < 2 || hi > 50 {
		t.Errorf("latency range %v..%v ms outside the 2 ms service", lo, hi)
	}
}
