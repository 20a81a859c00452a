package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"runtime"
	"syscall"
	"time"

	"millibalance/internal/cluster"
)

// sim_paper: the paper's full testbed (cluster.PaperConfig: 4 web × 4
// app × 1 DB, 70k closed-loop clients, 7 s think time, app writeback
// armed) on Table I's failing arm. One repetition simulates simVirtual
// of virtual time. The first simSeeds repetitions use distinct seeds and
// together cover the paper's 180 s run. Later repetitions, run while
// --seconds remain, replay those seeds and must reproduce their digests.
const (
	simVirtual = 60 * time.Second
	simSeeds   = 3
	simSetups  = 21
	// simVLRTFloor is the failing-arm signature's lower bound on the
	// VLRT share (percent). Table I reports 5.33% over 180 s; a short
	// seed with few slow flushes still stays well above 1%.
	simVLRTFloor = 1.0
)

func simConfig(seed uint64, rep int) cluster.Config {
	cfg := cluster.PaperConfig()
	cfg.Policy = "total_request"
	cfg.Mechanism = "original_get_endpoint"
	cfg.Duration = simVirtual
	cfg.Seed1 = splitmix(seed, uint64(2*rep+1))
	cfg.Seed2 = splitmix(seed, uint64(2*rep+2))
	return cfg
}

// simSlice is the virtual-time slice whose cost gives the simulator's
// latency figures: how long the simulator thread computes to advance the
// simulation by one slice.
const simSlice = 100 * time.Millisecond

// simRep is one finished repetition.
type simRep struct {
	res     *cluster.Results
	fired   uint64
	pending int
	win     window
	cpu     time.Duration // simulator-thread CPU time of the run
	slices  hist          // simulator-thread CPU time per simSlice of virtual time
	digest  [sha256.Size]byte
}

func (r simRep) completed() uint64 { return r.res.Responses.Total() }

// rate is completed requests per second of simulator-thread CPU time.
// The simulator is single-threaded, so on an idle host this is close to
// its wall-clock rate; unlike wall time, it leaves out the time a shared
// host gives the CPU to other tenants (steal), which swings wall-clock
// figures by tens of percent between otherwise identical runs.
func (r simRep) rate() float64 { return float64(r.completed()) / r.cpu.Seconds() }

// runSimRep builds a cluster outside the measured window and times only
// its run. With slices set, a recurring engine event stamps the
// simulator thread's CPU time every simSlice; it touches no model state,
// so the simulated statistics stay identical. during, when non-nil,
// brackets the run (profiling).
func runSimRep(cfg cluster.Config, slices bool, during func(run func())) simRep {
	runtime.GC()
	c := cluster.New(cfg)
	var rep simRep
	var stamps []time.Duration
	var ts syscall.Timespec // reused, so a stamp allocates nothing
	if slices {
		stamps = make([]time.Duration, 0, int(cfg.Duration/simSlice)+2)
		var tick func()
		tick = func() {
			stamps = append(stamps, threadCPU(&ts))
			c.Eng.Schedule(simSlice, tick)
		}
		c.Eng.Schedule(simSlice, tick)
	}
	run := func() {
		// The engine runs on this goroutine; holding its OS thread makes
		// that thread's CPU time the simulator's.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := takeSnapshot()
		cpu0 := threadCPU(&ts)
		stamps = append(stamps, cpu0)
		rep.res = c.Run()
		rep.cpu = threadCPU(&ts) - cpu0
		rep.win = since(start)
	}
	if during != nil {
		during(run)
	} else {
		run()
	}
	for i := 1; i < len(stamps); i++ {
		rep.slices.record(stamps[i] - stamps[i-1])
	}
	rep.fired = c.Eng.Fired()
	rep.pending = c.Eng.Pending()
	rep.digest = simDigest(rep.res)
	return rep
}

// simDigest hashes the simulated statistics: everything a speed-only
// change must leave identical. Engine event counts are left out, since
// a change may legitimately schedule fewer events for the same outcome.
func simDigest(res *cluster.Results) [sha256.Size]byte {
	h := sha256.New()
	r := res.Responses
	fmt.Fprintf(h, "issued=%d total=%d failures=%d vlrt=%d retx=%d\n",
		res.Issued, r.Total(), r.Failures(), r.VLRTCount(), r.Retransmits())
	fmt.Fprintf(h, "drops=%d retransmits=%d giveups=%d rejects=%d sheds=%d\n",
		res.Drops, res.Retransmits, res.GiveUps, res.Rejects, res.AdmissionSheds)
	for _, b := range r.Histogram().Buckets() {
		fmt.Fprintf(h, "b %d %d\n", b.Lower, b.Count)
	}
	writeServed(h, "web", res.Webs)
	writeServed(h, "app", res.Apps)
	writeServed(h, "db", []*cluster.ServerStats{res.DB})
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func writeServed(h hash.Hash, tier string, servers []*cluster.ServerStats) {
	for _, s := range servers {
		fmt.Fprintf(h, "%s %s %d\n", tier, s.Name, s.Served)
	}
}

// checkSimRep verifies the failing-arm signature of one repetition.
func checkSimRep(rep *report, i int, r simRep) {
	res := r.res
	rep.check(res.Responses.VLRTPercent() > simVLRTFloor,
		"sim_paper rep %d: VLRT share %.2f%% not above the %.1f%% failing-arm floor", i, res.Responses.VLRTPercent(), simVLRTFloor)
	rep.check(res.Drops > 0, "sim_paper rep %d: no accept-queue drops", i)
	rep.check(r.completed() > 0, "sim_paper rep %d: no completed requests", i)
	rep.check(r.cpu > 0, "sim_paper rep %d: simulator-thread CPU time unavailable", i)
}

func runSimPaper(opt options, out io.Writer) (*report, error) {
	if opt.trace {
		return traceSimPaper(opt, out)
	}
	rep := newReport()
	setup, err := timeSetups(simSetups, func() (func(), error) {
		c := cluster.New(simConfig(opt.seed, 0))
		return func() { _ = c }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", setup)

	// Only each seed's digest outlives its repetition, so the peak RSS is
	// that of one repetition however many fit in the measured time.
	var (
		digests [simSeeds][sha256.Size]byte
		rates   []float64
		slices  hist
		total   window
		done    uint64
		digest  = sha256.New()
		start   = time.Now()
	)
	for i := 0; ; i++ {
		r := runSimRep(simConfig(opt.seed, i%simSeeds), true, nil)
		checkSimRep(rep, i, r)
		slices.merge(&r.slices)
		if i < simSeeds {
			digests[i] = r.digest
			digest.Write(r.digest[:])
		} else {
			rep.check(r.digest == digests[i%simSeeds],
				"sim_paper rep %d: digest differs from rep %d with the same seed", i, i%simSeeds)
		}
		rates = append(rates, r.rate())
		total.add(r.win)
		done += r.completed()
		// Simulated give-ups are the model's output on the failing arm,
		// covered by the digest and by bench.fail_share; they are not
		// failures of the benchmark, whose own failures are failed checks.
		rep.attempted += r.res.Issued
		// Stop once the seeds are covered and another repetition would
		// overrun the measured time.
		if i+1 >= simSeeds && time.Since(start)+r.win.wall > opt.seconds {
			break
		}
	}
	fmt.Fprintf(out, "sim digest sha256=%x reps=%d\n", digest.Sum(nil), len(rates))
	rep.set("req_per_s", "1/s", median(rates))
	p50, _ := slices.percentile(0.50)
	p99, ok := slices.percentile(0.99)
	rep.check(ok, "sim_paper: %d slices leave fewer than %d beyond p99", slices.n, minBeyond)
	rep.set("p50_ms", "ms", p50)
	rep.set("p99_ms", "ms", p99)
	rep.setCostMetrics(total, done)
	return rep, nil
}

// traceSimPaper runs one untraced and one profiled repetition of the
// first seed and reports the per-layer metrics of the profiled one.
func traceSimPaper(opt options, out io.Writer) (*report, error) {
	rep := newReport()
	cfg := simConfig(opt.seed, 0)
	plain := runSimRep(cfg, false, nil)
	checkSimRep(rep, 0, plain)
	var prof *layerProfile
	traced := runSimRep(cfg, true, func(run func()) {
		var err error
		prof, err = profileLayers(run)
		if err != nil {
			rep.check(false, "profile: %v", err)
		}
	})
	checkSimRep(rep, 1, traced)
	rep.check(traced.digest == plain.digest, "sim_paper: profiling or slice stamps changed the simulated statistics")
	fmt.Fprintf(out, "sim digest sha256=%x reps=1\n", traced.digest)

	res := traced.res
	n := float64(traced.completed())
	rep.attempted = res.Issued
	// Event counts come from the plain repetition, which carries no
	// slice-stamp events.
	rep.set("sim.events_per_req", "count", float64(plain.fired)/n)
	rep.set("sim.heap_depth", "count", float64(plain.pending))
	rep.set("netmodel.drops_per_kreq", "1/kreq", 1000*float64(res.Drops)/n)
	rep.set("netmodel.retransmits_per_kreq", "1/kreq", 1000*float64(res.Retransmits)/n)
	rep.set("lb.rejects_per_kreq", "1/kreq", 1000*float64(res.Rejects)/n)
	rep.set("cluster.vlrt_share", "share", res.Responses.VLRTPercent()/100)
	rep.set("bench.fail_share", "share", float64(res.Responses.Failures())/float64(max(res.Issued, 1)))
	rep.set("runtime.gc_per_kreq", "1/kreq", 1000*float64(traced.win.gcs)/n)
	rep.set("bench.trace_overhead", "ratio", traced.rate()/plain.rate())
	if prof != nil {
		prof.report(rep)
	}
	rep.set("sim.schedule_fire_ns", "ns", benchScheduleFire(plain.pending))
	rep.fillPerLayer()
	return rep, nil
}
