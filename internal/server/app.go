package server

import (
	"millibalance/internal/obs"
	"millibalance/internal/resource"
	"millibalance/internal/sim"
	"millibalance/internal/workload"
)

// AppConfig configures an application (Tomcat-like) server.
type AppConfig struct {
	// Name identifies the server in metrics.
	Name string
	// Cores is the CPU core count.
	Cores int
	// Workers is the servlet thread pool size (Tomcat maxThreads; 210
	// in the paper's configuration).
	Workers int
	// DBConns is the connection pool to the database (48 in the
	// paper's configuration).
	DBConns int
	// LinkLatency is the one-way latency to the database tier.
	LinkLatency sim.Time
	// Writeback configures the page-cache writeback daemon that flushes
	// this server's access/servlet logs — the paper's millibottleneck
	// source.
	Writeback resource.WritebackConfig
}

// App is the application tier server. Each request occupies a servlet
// thread, runs a CPU burst, issues its interaction's database queries,
// runs a response-serialization burst, appends to the access logs
// (dirtying pages) and returns. A writeback flush stalls the CPU,
// freezing burst progress — requests keep arriving and occupying threads
// while nothing completes, which is what exhausts the web tier's
// endpoint pools during a millibottleneck.
type App struct {
	eng     *sim.Engine
	name    string
	cpu     *resource.CPU
	workers *sim.Pool
	wb      *resource.Writeback
	db      *DB
	conns   *sim.Pool // connection pool to the database
	link    sim.Time  // one-way latency to the database
	served  uint64
	free    sim.FreeList[appCall]
}

// appCall is one request's stay in an application server, from Handle
// to its done callback: the servlet-thread wait, the two CPU bursts
// around the database phase, and the interaction's sequential database
// round trips with their link hops. Records are owned by their App and
// recycled after the last event that touches them; every callback they
// hand to the pools, the CPU, the engine and the DB is a method value
// bound once when the record is created, so a request allocates nothing
// here in steady state.
type appCall struct {
	a    *App
	it   *workload.Interaction
	sp   *obs.Span
	done func()

	stage     appStage
	post      sim.Time // demand of the response-serialization burst
	start     sim.Time // start of the current traced burst
	remaining int      // database queries still to issue

	onWorker, onBurst, onConn, onAtDB, onQueried, onBack func()
	onTracedBurst                                        func(queued, frozen sim.Time)
}

// appStage tells a finished CPU burst which phase of the request it
// closed.
type appStage uint8

const (
	// stagePre is the servlet burst before the database phase.
	stagePre appStage = iota
	// stagePost is the response-serialization burst after it.
	stagePost
)

// NewApp returns an application server wired to the given database.
func NewApp(eng *sim.Engine, cfg AppConfig, db *DB) *App {
	if db == nil {
		panic("server: NewApp with nil DB")
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.DBConns < 1 {
		cfg.DBConns = 1
	}
	a := &App{
		eng:     eng,
		name:    cfg.Name,
		cpu:     resource.NewCPU(eng, cfg.Cores),
		workers: sim.NewPool(cfg.Workers),
		db:      db,
		conns:   sim.NewPool(cfg.DBConns),
		link:    cfg.LinkLatency,
	}
	a.wb = resource.NewWriteback(eng, cfg.Writeback, a.cpu.Stall)
	a.wb.Start()
	return a
}

// Name returns the server name.
func (a *App) Name() string { return a.name }

// CPU exposes the CPU for metrics sampling and stall injection.
func (a *App) CPU() *resource.CPU { return a.cpu }

// Writeback exposes the writeback daemon for metrics (dirty-page series,
// flush events) and configuration checks.
func (a *App) Writeback() *resource.Writeback { return a.wb }

// Served reports the number of completed requests.
func (a *App) Served() uint64 { return a.served }

// QueuedRequests reports requests inside the server: waiting for a
// servlet thread plus in service.
func (a *App) QueuedRequests() int { return a.workers.Waiting() + a.workers.InUse() }

// DBConnsInUse reports occupied database connection-pool slots — the
// app tier's connection-pool-occupancy telemetry signal.
func (a *App) DBConnsInUse() int { return a.conns.InUse() }

// Handle processes one interaction and calls done when the response is
// ready to travel back. The servlet demand is split 70/30 around the
// database phase so that a mid-request stall also freezes response
// serialization. sp, when non-nil, receives the request's app-tier
// stages: the servlet-thread wait, the CPU bursts (split into worked
// and stall-frozen time) and the database phase.
func (a *App) Handle(it *workload.Interaction, sp *obs.Span, done func()) {
	if it == nil || done == nil {
		panic("server: App.Handle with nil interaction or done")
	}
	r := a.newCall()
	r.it, r.sp, r.done = it, sp, done
	sp.Enter(obs.StageAppAcceptQueue, a.eng.Now())
	a.workers.Acquire(r.onWorker)
}

// newCall takes a record from the free list, or makes one and binds its
// callbacks.
func (a *App) newCall() *appCall {
	if r := a.free.Get(); r != nil {
		return r
	}
	r := &appCall{a: a}
	r.onWorker = r.workerGranted
	r.onBurst = r.burstDone
	r.onTracedBurst = r.tracedBurstDone
	r.onConn = r.connGranted
	r.onAtDB = r.atDB
	r.onQueried = r.queried
	r.onBack = r.back
	return r
}

// workerGranted runs with a servlet thread held.
func (r *appCall) workerGranted() {
	a := r.a
	r.sp.Exit(obs.StageAppAcceptQueue, a.eng.Now())
	demand := sampleDemand(a.eng, r.it.AppDemand)
	pre := demand * 7 / 10
	r.post = demand - pre
	r.stage = stagePre
	r.burst(pre)
}

// burst runs one CPU burst, attributing its wall time to the span:
// worked time (run-queue wait + demand) to StageAppThread and frozen
// time to StageStallFrozen. Without a span it takes the untraced path.
func (r *appCall) burst(demand sim.Time) {
	if r.sp == nil {
		r.a.cpu.Submit(demand, r.onBurst)
		return
	}
	r.start = r.a.eng.Now()
	r.a.cpu.SubmitTraced(demand, r.onTracedBurst)
}

func (r *appCall) tracedBurstDone(_, frozen sim.Time) {
	r.sp.Add(obs.StageAppThread, r.a.eng.Now()-r.start-frozen)
	r.sp.Add(obs.StageStallFrozen, frozen)
	r.burstDone()
}

// burstDone closes a CPU burst: the servlet burst opens the database
// phase; the serialization burst finishes the request and retires the
// record.
func (r *appCall) burstDone() {
	a := r.a
	if r.stage == stagePre {
		r.sp.Enter(obs.StageDBCall, a.eng.Now())
		r.remaining = r.it.DBQueries
		r.nextQuery()
		return
	}
	a.wb.AddDirty(r.it.LogBytes)
	a.served++
	a.workers.Release()
	done := r.done
	r.it, r.sp, r.done = nil, nil, nil
	a.free.Put(r)
	done()
}

// nextQuery issues the next of the interaction's sequential database
// queries over the connection pool, or closes the database phase and
// runs the serialization burst once none remain.
func (r *appCall) nextQuery() {
	if r.remaining == 0 {
		r.sp.Exit(obs.StageDBCall, r.a.eng.Now())
		r.stage = stagePost
		r.burst(r.post)
		return
	}
	r.remaining--
	r.a.conns.Acquire(r.onConn)
}

func (r *appCall) connGranted() { r.a.eng.Schedule(r.a.link, r.onAtDB) } // request to DB
func (r *appCall) atDB()        { r.a.db.Query(r.it.DBDemand, r.onQueried) }
func (r *appCall) queried()     { r.a.eng.Schedule(r.a.link, r.onBack) } // response back

func (r *appCall) back() {
	r.a.conns.Release()
	r.nextQuery()
}
