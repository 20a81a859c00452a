package main

import (
	"context"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator: one process, nproc connections and one goroutine
// per connection, over loopback.
//
// A closed loop sends each worker's next request when the previous one
// completes; latency runs from send to completion. An open loop sends
// on a Poisson schedule fixed in advance; each request is timed from
// when it was due, so a request that waits behind a stalled one is
// charged for that wait, and how late the generator ran is reported
// separately.

// op issues one request on behalf of a worker and reports whether its
// response passed the output checks.
type op func(ctx context.Context) error

// tally is one generator run, or one worker's share of it.
type tally struct {
	lat       hist          // successful requests: from due (open loop) or send (closed loop)
	late      hist          // how far each send trailed its due time (open loop)
	service   time.Duration // summed send→done time of successful requests
	attempted uint64
	failed    uint64
	errs      []error // first few failures
	wall      time.Duration
}

func (g *tally) completed() uint64 { return g.lat.n }

// serviceMeanMS is the mean send→done time of successful requests.
func (g *tally) serviceMeanMS() float64 {
	if g.lat.n == 0 {
		return 0
	}
	return float64(g.service) / float64(g.lat.n) / 1e6
}

const keepErrors = 4

func (g *tally) record(due, sent, done time.Time, err error) {
	g.attempted++
	if err != nil {
		g.failed++
		if len(g.errs) < keepErrors {
			g.errs = append(g.errs, err)
		}
		return
	}
	g.lat.record(done.Sub(due))
	g.service += done.Sub(sent)
}

// genConns is the generator's connection and goroutine count: one per
// core, so load never comes from more connections than nproc.
var genConns = runtime.NumCPU()

// generator holds a load generator's tallies: one per worker and their
// merge. They are allocated once, before any measured window, and zeroed
// at the start of each run, so no window bills the generator's own
// memory.
type generator struct {
	workers []*tally
	total   tally
}

func newGenerator(workers int) *generator {
	g := &generator{workers: make([]*tally, workers)}
	for i := range g.workers {
		g.workers[i] = &tally{}
	}
	return g
}

func (g *generator) reset() {
	for _, w := range g.workers {
		*w = tally{}
	}
}

// merge sums the worker tallies into g.total and returns it.
func (g *generator) merge(wall time.Duration) *tally {
	t := &g.total
	*t = tally{wall: wall}
	for _, w := range g.workers {
		t.lat.merge(&w.lat)
		t.late.merge(&w.late)
		t.service += w.service
		t.attempted += w.attempted
		t.failed += w.failed
		for _, e := range w.errs {
			if len(t.errs) < keepErrors {
				t.errs = append(t.errs, e)
			}
		}
	}
	return t
}

// closedLoop runs each worker as a back-to-back sender for d.
func (g *generator) closedLoop(d time.Duration, do op) *tally {
	g.reset()
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range g.workers {
		wg.Add(1)
		go func(w *tally) {
			defer wg.Done()
			for {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				err := do(ctx)
				w.record(sent, sent, time.Now(), err)
			}
		}(w)
	}
	wg.Wait()
	return g.merge(time.Since(start))
}

// openLoop sends one request per due offset (from start); each worker
// takes the next due request in order.
func (g *generator) openLoop(due []time.Duration, do op) *tally {
	g.reset()
	ctx := context.Background()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range g.workers {
		wg.Add(1)
		go func(w *tally) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(len(due)) {
					return
				}
				at := start.Add(due[k])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				w.late.record(sent.Sub(at))
				err := do(ctx)
				w.record(at, sent, time.Now(), err)
			}
		}(w)
	}
	wg.Wait()
	return g.merge(time.Since(start))
}

// poissonSchedule draws arrival offsets at rate per second over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// genTransport is the generator's own HTTP transport: at most conns
// connections, each kept alive, and a dial counter so the run can prove
// it never opened more.
type genTransport struct {
	*http.Transport
	dials atomic.Int64
}

func newGenTransport(conns int) *genTransport {
	t := &genTransport{}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	t.Transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			t.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return t
}
