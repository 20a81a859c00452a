package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"millibalance/internal/admission"
	"millibalance/internal/httpcluster"
	"millibalance/internal/obs"
)

// proxySpec is one loopback topology: numApps apps behind the proxy,
// optionally backed by the database stub.
type proxySpec struct {
	serviceTime   time.Duration
	responseBytes int
	dbQuery       time.Duration // zero: no database tier
	dbQueries     int
	policy        httpcluster.Policy
	admission     string
}

// Sizes follow cmd/httpdemo: 64 app workers, 128 proxy workers and a
// 4-endpoint pool per backend. Both workloads use the paper's remedy
// mechanism, so only the policy differs between them.
const (
	numApps       = 4
	appWorkers    = 64
	proxyWorkers  = 128
	endpointsPool = 4
	mechanism     = httpcluster.MechanismModified
	proxySetups   = 51
	proxyWarmup   = 500 * time.Millisecond
)

// proxy_forward: bare forwarding at the smallest payload. A 1 ns service
// time makes every service slice sleep zero.
var forwardSpec = proxySpec{
	serviceTime:   time.Nanosecond,
	responseBytes: 1,
	policy:        httpcluster.PolicyCurrentLoad,
}

// proxy_ntier: cmd/httpdemo's tiers under prequal with an adaptive gate.
var ntierSpec = proxySpec{
	serviceTime:   2 * time.Millisecond,
	responseBytes: 2048,
	dbQuery:       200 * time.Microsecond,
	dbQueries:     1,
	policy:        httpcluster.PolicyPrequal,
	admission:     "gradient+codel",
}

// proxy_ntier's open-loop load and injected millibottlenecks.
const (
	ntierRate     = 80.0 // req/s; keeps the connections under half busy
	stallLength   = 200 * time.Millisecond
	stallEvery    = time.Second
	stallMaxStart = 800 * time.Millisecond // stall start offset within its second
)

// proxyCluster is a running topology.
type proxyCluster struct {
	spec  proxySpec
	db    *httpcluster.DBServer
	apps  []*httpcluster.AppServer
	proxy *httpcluster.Proxy
	names map[string]bool
}

// startCluster starts the database, the apps and the proxy. A non-nil
// tracer arms the proxy's span ring and carries its upstream traffic.
func startCluster(spec proxySpec, tracer *upstreamTracer) (c *proxyCluster, err error) {
	c = &proxyCluster{spec: spec, names: make(map[string]bool)}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	dbURL := ""
	if spec.dbQuery > 0 {
		if c.db, err = httpcluster.StartDBServer(spec.dbQuery); err != nil {
			return c, err
		}
		dbURL = c.db.URL()
	}
	var backends []*httpcluster.Backend
	for i := 0; i < numApps; i++ {
		name := fmt.Sprintf("app%d", i+1)
		app, err := httpcluster.StartAppServer(httpcluster.AppServerConfig{
			Name:          name,
			Workers:       appWorkers,
			ServiceTime:   spec.serviceTime,
			DBURL:         dbURL,
			DBQueries:     spec.dbQueries,
			ResponseBytes: spec.responseBytes,
		})
		if err != nil {
			return c, err
		}
		c.apps = append(c.apps, app)
		c.names[name] = true
		backends = append(backends, httpcluster.NewBackend(name, app.URL(), endpointsPool))
	}
	pcfg := httpcluster.ProxyConfig{
		Workers:   proxyWorkers,
		Policy:    spec.policy,
		Mechanism: mechanism,
	}
	if pcfg.Admission, err = admission.ParseSpec(spec.admission); err != nil {
		return c, err
	}
	if tracer != nil {
		pcfg.SpanCapacity = 1 << 17
		pcfg.Transport = tracer
	}
	c.proxy, err = httpcluster.StartProxy(pcfg, backends)
	return c, err
}

func (c *proxyCluster) close() {
	if c.proxy != nil {
		_ = c.proxy.Close()
	}
	for _, a := range c.apps {
		_ = a.Close()
	}
	if c.db != nil {
		_ = c.db.Close()
	}
}

// served is the number of requests the apps completed.
func (c *proxyCluster) served() uint64 {
	var n uint64
	for _, a := range c.apps {
		n += a.Served()
	}
	return n
}

// queries is the number of database queries served (zero without a DB).
func (c *proxyCluster) queries() uint64 {
	if c.db == nil {
		return 0
	}
	return c.db.Queries()
}

// request returns the generator operation: one GET through the proxy
// whose response must be a 200 carrying the configured payload length
// from a backend that exists.
func (c *proxyCluster) request(client *http.Client) op {
	url := c.proxy.URL() + "/"
	return func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		switch {
		case err != nil:
			return fmt.Errorf("read body: %w", err)
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("status %d", resp.StatusCode)
		case n != int64(c.spec.responseBytes):
			return fmt.Errorf("payload %d bytes, want %d", n, c.spec.responseBytes)
		case !c.names[resp.Header.Get("X-Backend")]:
			return fmt.Errorf("X-Backend %q names no backend", resp.Header.Get("X-Backend"))
		}
		return nil
	}
}

// setupOnce starts a cluster and serves its first request.
func setupOnce(spec proxySpec, tracer *upstreamTracer) (*proxyCluster, error) {
	c, err := startCluster(spec, tracer)
	if err != nil {
		return nil, err
	}
	gt := newGenTransport(1)
	defer gt.CloseIdleConnections()
	if err := c.request(&http.Client{Transport: gt})(context.Background()); err != nil {
		c.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return c, nil
}

// loadFunc prepares one measured phase against a cluster, outside the
// measured window, and returns the run that drives it.
type loadFunc func(c *proxyCluster, gen *generator, d time.Duration) func(do op) *tally

func closedLoad(_ *proxyCluster, gen *generator, d time.Duration) func(do op) *tally {
	return func(do op) *tally { return gen.closedLoop(d, do) }
}

// ntierLoad runs the Poisson schedule while a stall injector freezes one
// app for stallLength in every second. The arrival and stall schedules
// both follow from seed.
func ntierLoad(seed uint64) loadFunc {
	return func(c *proxyCluster, gen *generator, d time.Duration) func(do op) *tally {
		due := poissonSchedule(rand.New(rand.NewPCG(splitmix(seed, 11), splitmix(seed, 12))), ntierRate, d)
		stalls := rand.New(rand.NewPCG(splitmix(seed, 13), splitmix(seed, 14)))
		return func(do op) *tally { return stalledOpenLoop(c, gen, due, stalls, d, do) }
	}
}

// stalledOpenLoop sends on the due schedule while freezing one app, drawn
// from stalls, for stallLength at a drawn offset in every stallEvery.
func stalledOpenLoop(c *proxyCluster, gen *generator, due []time.Duration, stalls *rand.Rand, d time.Duration, do op) *tally {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for k := 0; time.Duration(k)*stallEvery < d; k++ {
			at := time.Duration(k)*stallEvery + time.Duration(stalls.Int64N(int64(stallMaxStart)))
			app := c.apps[stalls.IntN(len(c.apps))]
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(at))):
			}
			app.Stall(stallLength)
		}
	}()
	g := gen.openLoop(due, do)
	close(stop)
	wg.Wait()
	return g
}

// phase is one measured generator run against a fresh cluster. The
// counters are differences over the measured window, which excludes
// set-up and warm-up.
type phase struct {
	cluster  *proxyCluster
	gen      *tally
	win      window
	start    time.Time
	dials    int64
	upstream upstreamCounts
	served   uint64 // app-served requests
	queries  uint64 // database queries
}

// runPhase starts a cluster, warms it up, measures load for d and shuts
// everything down. during, when non-nil, brackets the measurement
// (profiling).
func runPhase(spec proxySpec, tracer *upstreamTracer, load loadFunc, d time.Duration, during func(func())) (*phase, error) {
	c, err := setupOnce(spec, tracer)
	if err != nil {
		return nil, err
	}
	gt := newGenTransport(genConns)
	do := c.request(&http.Client{Transport: gt})
	gen := newGenerator(genConns)
	// Let connections open and the probe pools fill before timing.
	gen.closedLoop(proxyWarmup, do)
	drive := load(c, gen, d)

	p := &phase{cluster: c}
	var up0 upstreamCounts
	var served0, queries0 uint64
	measure := func() {
		if tracer != nil {
			up0 = tracer.counts()
		}
		served0, queries0 = c.served(), c.queries()
		p.start = time.Now()
		snap := takeSnapshot()
		p.gen = drive(do)
		p.win = since(snap)
	}
	if during != nil {
		during(measure)
	} else {
		measure()
	}
	if tracer != nil {
		p.upstream = tracer.counts().since(up0)
	}
	gt.CloseIdleConnections()
	p.dials = gt.dials.Load()
	c.close()
	p.served, p.queries = c.served()-served0, c.queries()-queries0
	return p, nil
}

// checkPhase applies the output checks every proxy phase must pass.
func checkPhase(rep *report, name string, p *phase) {
	g := p.gen
	rep.attempted += g.attempted
	rep.failed += g.failed
	rep.check(g.failed == 0, "%s: %d of %d requests failed: %v", name, g.failed, g.attempted, errors.Join(g.errs...))
	rep.check(g.completed() > 0, "%s: no request completed", name)
	rep.check(p.dials <= int64(genConns), "%s: generator opened %d connections, limit %d", name, p.dials, genConns)
	want := p.served * uint64(p.cluster.spec.dbQueries)
	rep.check(p.queries == want, "%s: database served %d queries for %d app requests × %d", name, p.queries, p.served, p.cluster.spec.dbQueries)
}

func runProxyForward(opt options, _ io.Writer) (*report, error) {
	return runProxy("proxy_forward", forwardSpec, closedLoad, opt)
}

func runProxyNTier(opt options, _ io.Writer) (*report, error) {
	return runProxy("proxy_ntier", ntierSpec, ntierLoad(opt.seed), opt)
}

func runProxy(name string, spec proxySpec, load loadFunc, opt options) (*report, error) {
	if opt.trace {
		return traceProxy(name, spec, load, opt)
	}
	rep := newReport()
	setup, err := timeSetups(proxySetups, func() (func(), error) {
		c, err := setupOnce(spec, nil)
		if err != nil {
			return nil, err
		}
		return c.close, nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", setup)

	p, err := runPhase(spec, nil, load, opt.seconds, nil)
	if err != nil {
		return nil, err
	}
	checkPhase(rep, name, p)
	g := p.gen
	rep.set("req_per_s", "1/s", float64(g.completed())/g.wall.Seconds())
	p50, _ := g.lat.percentile(0.50)
	p99, ok := g.lat.percentile(0.99)
	rep.check(ok, "%s: %d samples leave fewer than %d beyond p99", name, g.lat.n, minBeyond)
	rep.set("p50_ms", "ms", p50)
	rep.set("p99_ms", "ms", p99)
	rep.setCostMetrics(p.win, g.completed())
	return rep, nil
}

// traceProxy measures half the time untraced and half traced, and
// reports the per-layer metrics of the traced half.
func traceProxy(name string, spec proxySpec, load loadFunc, opt options) (*report, error) {
	rep := newReport()
	half := opt.seconds / 2
	plain, err := runPhase(spec, nil, load, half, nil)
	if err != nil {
		return nil, err
	}
	checkPhase(rep, name, plain)

	tracer := newUpstreamTracer()
	var prof *layerProfile
	traced, err := runPhase(spec, tracer, load, half, func(measure func()) {
		var perr error
		prof, perr = profileLayers(measure)
		rep.check(perr == nil, "profile: %v", perr)
	})
	if err != nil {
		return nil, err
	}
	checkPhase(rep, name+" traced", traced)
	if prof != nil {
		prof.report(rep)
	}

	g := traced.gen
	n := float64(max(g.completed(), 1))
	rate := func(p *phase) float64 { return float64(p.gen.completed()) / p.gen.wall.Seconds() }
	rep.set("bench.trace_overhead", "ratio", rate(traced)/rate(plain))
	rep.set("runtime.gc_per_kreq", "1/kreq", 1000*float64(traced.win.gcs)/n)
	// Stage means over the measured window's spans, against the
	// client-observed mean.
	c := traced.cluster
	from := traced.start.Sub(c.proxy.Epoch())
	var accept, getEndpoint, nspans float64
	for _, sp := range c.proxy.Tracer().Spans() {
		if sp.StartAt < from {
			continue
		}
		accept += float64(sp.Duration(obs.StageWebAcceptQueue))
		getEndpoint += float64(sp.Duration(obs.StageGetEndpoint))
		nspans++
	}
	nspans = max(nspans, 1)
	acceptUS, getEndpointUS := accept/nspans/1e3, getEndpoint/nspans/1e3
	clientUS := g.serviceMeanMS() * 1e3
	up := traced.upstream
	upstreamUS := up.meanUS()
	selfUS := clientUS - upstreamUS
	otherUS := selfUS - acceptUS - getEndpointUS
	rep.check(otherUS >= -0.02*clientUS,
		"%s: accept wait %.1fus + get_endpoint %.1fus + upstream %.1fus exceed the client mean %.1fus",
		name, acceptUS, getEndpointUS, upstreamUS, clientUS)
	rep.set("httpcluster.proxy.client_us", "us", clientUS)
	rep.set("httpcluster.proxy.accept_wait_us", "us", acceptUS)
	rep.set("httpcluster.balancer.get_endpoint_us", "us", getEndpointUS)
	rep.set("httpcluster.proxy.upstream_us", "us", upstreamUS)
	rep.set("httpcluster.proxy.self_us", "us", selfUS)
	rep.set("httpcluster.proxy.other_us", "us", otherUS)
	rep.set("httpcluster.proxy.new_conns_per_kreq", "1/kreq", 1000*float64(up.newConns)/n)
	rep.set("probe.probes_per_req", "ratio", float64(up.probes)/n)
	if nominal := spec.serviceTime + time.Duration(spec.dbQueries)*spec.dbQuery; nominal >= time.Millisecond {
		rep.set("httpcluster.app.service_ratio", "ratio", upstreamUS*1e3/float64(nominal))
	}
	if c.db != nil {
		rep.set("httpcluster.db.queries_per_req", "ratio", float64(traced.queries)/float64(max(traced.served, 1)))
	}
	if g.late.n > 0 {
		late, _ := g.late.percentile(0.99)
		rep.set("loadgen.late_p99_ms", "ms", late)
	}
	if p999, ok := g.lat.percentile(0.999); ok {
		rep.set("loadgen.p999_ms", "ms", p999)
	}
	rep.set("loadgen.busy_share", "share", float64(g.service)/float64(g.wall*time.Duration(genConns)))

	ns, allocs := benchAcquire(spec.policy)
	rep.set("httpcluster.balancer.acquire_ns", "ns", ns)
	rep.set("httpcluster.balancer.acquire_allocs", "count", allocs)
	if spec.admission != "" {
		gateNS, err := benchGate(spec.admission)
		if err != nil {
			return nil, err
		}
		rep.set("admission.gate_ns", "ns", gateNS)
	}
	rep.fillPerLayer()
	return rep, nil
}
