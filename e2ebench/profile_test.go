package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"millibalance/internal/sim.(*Engine).Step":                               "millibalance/internal/sim",
		"millibalance/internal/resource.(*CPU).start.func1":                      "millibalance/internal/resource",
		"millibalance/internal/sim.(*FIFO[go.shape.*millibalance/internal/x.T])": "millibalance/internal/sim",
		"net/http.(*conn).serve":                                                 "net/http",
		"runtime.mallocgc":                                                       "runtime",
		"main.closedLoop.func1":                                                  "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketsPreferRuntimeCostsThenInnermostLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "millibalance/internal/sim.(*Engine).Step", "millibalance/internal/cluster.(*Cluster).Run"}, "sim"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "millibalance/internal/server.(*Web).handle"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "runtime.gc"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net/http.(*persistConn).writeLoop"}, "nethttp"},
		{[]string{"millibalance/internal/stats.(*Histogram).Record", "millibalance/internal/metrics.(*ResponseRecorder).Record"}, "metrics"},
		{[]string{"millibalance/internal/obs.(*Span).Enter"}, "other"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	} {
		if got := cpuBucket(c.stack); got != c.want {
			t.Errorf("cpuBucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	got := shares(map[string]float64{"sim": 3, "runtime.gc": 1, "other": 4}, cpuBuckets)
	var sum float64
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 || got["sim"] != 3.0/8 {
		t.Errorf("shares %v sum to %v", got, sum)
	}
	if zero := shares(nil, cpuBuckets); zero["sim"] != 0 {
		t.Errorf("empty weights gave %v", zero)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

// A real CPU profile parses, and attributing it by package accounts for
// all of its samples, with this test's busy loop charged to "loadgen"
// (package main).
func TestRealProfileAttributionSumsToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	weights, err := cpuWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := shares(weights, cpuBuckets)
	var sum float64
	for _, b := range cpuBuckets {
		sum += got[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, got)
	}
	if got["loadgen"] < 0.5 {
		t.Errorf("busy loop got %.2f of CPU, want most of it: %v", got["loadgen"], got)
	}
}

func TestProfileLayersAttributesAllocations(t *testing.T) {
	var keep [][]byte
	prof, err := profileLayers(func() {
		for i := 0; i < 4000; i++ {
			keep = append(keep, make([]byte, 1024))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range layerBuckets {
		sum += prof.alloc[b]
	}
	if math.Abs(sum-1) > 1e-9 || prof.alloc["loadgen"] < 0.5 {
		t.Errorf("alloc shares %v (sum %v), want most in loadgen", prof.alloc, sum)
	}
	_ = keep
}
