// Package server models the three tier-server types of the paper's
// testbed in virtual time: a web server (Apache httpd + mod_jk), an
// application server (Tomcat) and a database server (MySQL). Each owns a
// multi-core CPU, a worker-thread pool and — where relevant — an accept
// queue, downstream connection pools and a page-cache writeback daemon
// whose flushes produce millibottlenecks.
package server

import (
	"millibalance/internal/resource"
	"millibalance/internal/sim"
)

// sampleDemand draws an actual CPU demand around the interaction's mean:
// uniform within ±50%, which keeps tier means stable while providing
// enough dispersion for realistic queueing.
func sampleDemand(eng *sim.Engine, mean sim.Time) sim.Time {
	return eng.Jitter(mean, 0.5)
}

// DBConfig configures a database server.
type DBConfig struct {
	// Name identifies the server in metrics.
	Name string
	// Cores is the CPU core count.
	Cores int
	// Workers bounds concurrently processed queries (thread pool).
	Workers int
}

// DB is the database tier server. Queries occupy a worker thread and a
// CPU burst; in the paper's experiments MySQL is never the bottleneck.
type DB struct {
	eng     *sim.Engine
	name    string
	cpu     *resource.CPU
	workers *sim.Pool
	served  uint64
	free    sim.FreeList[query]
}

// query is one database query from Query to its completion. Records are
// owned by their DB and recycled once the completion has run past its
// last use of the record; the grant and finish callbacks are bound once
// per record, so queries allocate nothing in steady state.
type query struct {
	d      *DB
	demand sim.Time
	done   func()
	grant  func()
	finish func()
}

// NewDB returns a database server.
func NewDB(eng *sim.Engine, cfg DBConfig) *DB {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &DB{
		eng:     eng,
		name:    cfg.Name,
		cpu:     resource.NewCPU(eng, cfg.Cores),
		workers: sim.NewPool(cfg.Workers),
	}
}

// Name returns the server name.
func (d *DB) Name() string { return d.name }

// CPU exposes the CPU for metrics sampling and stall injection.
func (d *DB) CPU() *resource.CPU { return d.cpu }

// Served reports the number of completed queries.
func (d *DB) Served() uint64 { return d.served }

// QueuedRequests reports queries inside the server: waiting for a thread
// plus in service — the per-tier queue metric of the paper's Fig. 2b.
func (d *DB) QueuedRequests() int { return d.workers.Waiting() + d.workers.InUse() }

// Query executes one query with the given mean CPU demand and calls done
// when it completes.
func (d *DB) Query(meanDemand sim.Time, done func()) {
	if done == nil {
		panic("server: DB.Query with nil done")
	}
	q := d.free.Get()
	if q == nil {
		q = &query{d: d}
		q.grant, q.finish = q.granted, q.finished
	}
	q.demand, q.done = meanDemand, done
	d.workers.Acquire(q.grant)
}

// granted runs once the query holds a worker thread.
func (q *query) granted() {
	q.d.cpu.Submit(sampleDemand(q.d.eng, q.demand), q.finish)
}

// finished runs when the query's CPU burst completes.
func (q *query) finished() {
	d, done := q.d, q.done
	d.served++
	d.workers.Release()
	q.done = nil
	d.free.Put(q)
	done()
}
