package main

import (
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"millibalance/internal/admission"
	"millibalance/internal/httpcluster"
	"millibalance/internal/probe"
	"millibalance/internal/sim"
)

// Per-layer microbenchmarks: each times one layer alone through its
// public functions with testing.Benchmark.

const microBenchtime = "300ms"

var initTesting sync.Once

func benchmark(fn func(b *testing.B)) testing.BenchmarkResult {
	initTesting.Do(func() {
		testing.Init()
		// Set fails only if the flag is missing; the 1s default then applies.
		_ = flag.Set("test.benchtime", microBenchtime)
	})
	return testing.Benchmark(fn)
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// benchScheduleFire times one Engine.Schedule plus the Step that fires
// it, on an engine already holding depth pending timers.
func benchScheduleFire(depth int) float64 {
	noop := func() {}
	return nsPerOp(benchmark(func(b *testing.B) {
		eng := sim.NewEngine(1, 2)
		for i := 0; i < depth; i++ {
			eng.Schedule(time.Hour+time.Duration(i), noop)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Schedule(time.Nanosecond, noop)
			eng.Step()
		}
	}))
}

// benchAcquire times Balancer.Acquire plus Release.Done over the proxy
// workloads' numApps backends. Under prequal the pools get one fresh
// probe sample every eight dispatches, the order of the wall prober's
// rate, so the policy never falls back to in-flight ranking.
func benchAcquire(policy httpcluster.Policy) (ns, allocs float64) {
	r := benchmark(func(b *testing.B) {
		var backends []*httpcluster.Backend
		var names []string
		for i := 1; i <= numApps; i++ {
			n := fmt.Sprintf("app%d", i)
			backends = append(backends, httpcluster.NewBackend(n, "http://127.0.0.1:1", endpointsPool))
			names = append(names, n)
		}
		bal := httpcluster.NewBalancer(policy, mechanism, backends, httpcluster.Config{})
		var pools *probe.Pools
		if policy == httpcluster.PolicyPrequal {
			epoch := time.Now()
			pools = probe.NewPools(probe.Config{}, func() time.Duration { return time.Since(epoch) })
			for _, n := range names {
				pools.Observe(n, 0, time.Millisecond)
			}
			bal.SetProbePools(pools, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pools != nil && i%8 == 0 {
				pools.Observe(names[(i/8)%len(names)], 1, time.Millisecond)
			}
			_, rel, err := bal.Acquire(0)
			if err != nil {
				b.Fatal(err)
			}
			rel.Done(1)
		}
	})
	return nsPerOp(r), float64(r.AllocsPerOp())
}

// benchGate times one admit/release round trip through an admission
// gate built from spec.
func benchGate(spec string) (float64, error) {
	cfg, err := admission.ParseSpec(spec)
	if err != nil {
		return 0, err
	}
	return nsPerOp(benchmark(func(b *testing.B) {
		g := admission.NewGate(*cfg, proxyWorkers)
		epoch := time.Now()
		g.SetClock(func() time.Duration { return time.Since(epoch) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !g.TryAcquire(admission.Interactive) {
				b.Fatal("gate refused an idle admit")
			}
			now := time.Since(epoch)
			g.Release(now, time.Millisecond, true)
		}
	})), nil
}
