package cluster

import (
	"runtime"
	"testing"
	"time"
)

// TestSimRequestPathAllocs guards the allocation-free simulated request
// path. It runs the paper's testbed on Table I's failing arm — every
// layer works: writeback stalls, accept-queue drops, retransmits and
// get_endpoint polls — and, once the closed loop has ramped up, counts
// heap allocations over a further stretch of virtual time. Per completed
// request the budget is two objects: the request itself, plus the
// amortized growth of queues and free lists.
func TestSimRequestPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run; the allocation guard runs without -short")
	}
	const (
		warm   = 10 * time.Second
		window = 6 * time.Second
		budget = 2.0
	)
	cfg := PaperConfig()
	cfg.Duration = warm + window
	c := New(cfg)
	var (
		ms                   runtime.MemStats
		mallocs, total, retx uint64
	)
	c.Eng.At(warm, func() {
		runtime.ReadMemStats(&ms)
		mallocs, total, retx = ms.Mallocs, c.rec.Total(), c.retrans.Retransmits()
	})
	c.Eng.At(warm+window, func() {
		runtime.ReadMemStats(&ms)
		mallocs, total, retx = ms.Mallocs-mallocs, c.rec.Total()-total, c.retrans.Retransmits()-retx
	})
	c.Run()
	if retx == 0 {
		t.Fatal("no accept-queue drop was retransmitted in the measured window: it misses that path")
	}
	if total == 0 {
		t.Fatal("no requests completed in the measured window")
	}
	per := float64(mallocs) / float64(total)
	t.Logf("%d allocations over %d completed requests: %.3f per request", mallocs, total, per)
	if per > budget {
		t.Fatalf("%.3f allocations per completed request, budget %.0f", per, budget)
	}
}
