package server

import (
	"testing"
	"testing/quick"
	"time"

	"millibalance/internal/lb"
	"millibalance/internal/resource"
	"millibalance/internal/sim"
	"millibalance/internal/workload"
)

func testInteraction() *workload.Interaction {
	return &workload.Interaction{
		Name:          "TestInteraction",
		WebDemand:     100 * time.Microsecond,
		AppDemand:     time.Millisecond,
		DBQueries:     2,
		DBDemand:      100 * time.Microsecond,
		RequestBytes:  300,
		ResponseBytes: 1000,
		LogBytes:      800,
	}
}

func quietWriteback() resource.WritebackConfig {
	return resource.DisabledWritebackConfig()
}

func newTestDB(eng *sim.Engine) *DB {
	return NewDB(eng, DBConfig{Name: "db1", Cores: 8, Workers: 64})
}

func newTestApp(eng *sim.Engine, name string, db *DB) *App {
	return NewApp(eng, AppConfig{
		Name:      name,
		Cores:     8,
		Workers:   210,
		DBConns:   48,
		Writeback: quietWriteback(),
	}, db)
}

func TestDBQueryCompletes(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	var doneAt sim.Time = -1
	db.Query(100*time.Microsecond, func() { doneAt = eng.Now() })
	eng.Run(time.Second)
	if doneAt <= 0 || doneAt > time.Millisecond {
		t.Fatalf("query completed at %v", doneAt)
	}
	if db.Served() != 1 {
		t.Fatalf("Served = %d", db.Served())
	}
}

func TestDBWorkerLimitQueues(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := NewDB(eng, DBConfig{Name: "db1", Cores: 1, Workers: 2})
	for i := 0; i < 5; i++ {
		db.Query(time.Millisecond, func() {})
	}
	if db.QueuedRequests() != 5 {
		t.Fatalf("QueuedRequests = %d, want 5", db.QueuedRequests())
	}
	eng.Run(time.Second)
	if db.QueuedRequests() != 0 || db.Served() != 5 {
		t.Fatalf("after drain: queued=%d served=%d", db.QueuedRequests(), db.Served())
	}
}

func TestDBNilDonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	eng := sim.NewEngine(1, 2)
	newTestDB(eng).Query(time.Millisecond, nil)
}

func TestAppHandleRunsQueriesAndLogs(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	app := newTestApp(eng, "app1", db)
	var doneAt sim.Time = -1
	app.Handle(testInteraction(), nil, func() { doneAt = eng.Now() })
	eng.Run(time.Second)
	if doneAt <= 0 {
		t.Fatal("request did not complete")
	}
	if db.Served() != 2 {
		t.Fatalf("db served %d queries, want 2", db.Served())
	}
	if app.Served() != 1 {
		t.Fatalf("app served %d", app.Served())
	}
	if app.Writeback().TotalDirtied() != 800 {
		t.Fatalf("dirtied %d bytes, want 800", app.Writeback().TotalDirtied())
	}
}

func TestAppZeroQueriesInteraction(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	app := newTestApp(eng, "app1", db)
	it := testInteraction()
	it.DBQueries = 0
	completed := false
	app.Handle(it, nil, func() { completed = true })
	eng.Run(time.Second)
	if !completed {
		t.Fatal("zero-query interaction did not complete")
	}
	if db.Served() != 0 {
		t.Fatalf("db served %d", db.Served())
	}
}

func TestAppWorkerLimit(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	app := NewApp(eng, AppConfig{Name: "app1", Cores: 8, Workers: 3, DBConns: 8, Writeback: quietWriteback()}, db)
	for i := 0; i < 10; i++ {
		app.Handle(testInteraction(), nil, func() {})
	}
	if app.QueuedRequests() != 10 {
		t.Fatalf("QueuedRequests = %d", app.QueuedRequests())
	}
	eng.Run(time.Second)
	if app.Served() != 10 {
		t.Fatalf("Served = %d", app.Served())
	}
}

func TestAppStallFreezesCompletions(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	app := newTestApp(eng, "app1", db)
	completions := 0
	// Stall the CPU for 200ms right away, then submit work.
	app.CPU().Stall(200 * time.Millisecond)
	for i := 0; i < 5; i++ {
		app.Handle(testInteraction(), nil, func() { completions++ })
	}
	eng.Run(150 * time.Millisecond)
	if completions != 0 {
		t.Fatalf("%d requests completed during the stall", completions)
	}
	eng.Run(time.Second)
	if completions != 5 {
		t.Fatalf("completions = %d after stall", completions)
	}
}

func TestAppWritebackFlushCausesStall(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	app := NewApp(eng, AppConfig{
		Name: "app1", Cores: 8, Workers: 210, DBConns: 48,
		Writeback: resource.WritebackConfig{
			Interval: 100 * time.Millisecond,
			Disk:     resource.Disk{WriteRate: 1 << 20},
		},
	}, db)
	// Dirty 200 KiB of logs quickly, then observe a stall after the
	// writeback interval.
	it := testInteraction()
	it.LogBytes = 200 << 10
	app.Handle(it, nil, func() {})
	eng.Run(90 * time.Millisecond)
	if app.CPU().Stalled() {
		t.Fatal("stalled before the writeback interval")
	}
	eng.Run(110 * time.Millisecond)
	if !app.CPU().Stalled() {
		t.Fatal("no stall after flush began")
	}
	if app.Writeback().Flushes() != 1 {
		t.Fatalf("Flushes = %d", app.Writeback().Flushes())
	}
}

func newTestWeb(eng *sim.Engine, name string, policy lb.Policy, mech lb.Mechanism, apps []*App) *Web {
	return NewWeb(eng, WebConfig{
		Name:          name,
		Cores:         8,
		Workers:       200,
		AcceptBacklog: 128,
		ConnPoolSize:  25,
		Policy:        policy,
		Mechanism:     mech,
		Writeback:     quietWriteback(),
	}, apps)
}

func TestWebEndToEnd(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	apps := []*App{newTestApp(eng, "app1", db), newTestApp(eng, "app2", db)}
	web := newTestWeb(eng, "web1", lb.TotalRequest{}, lb.NewModifiedGetEndpoint(), apps)

	var outcomes []workload.Outcome
	g := workload.NewGroup(eng, 20, workload.ClientConfig{
		ThinkTime: 50 * time.Millisecond,
		Mix:       workload.BrowseOnlyMix(),
		OnOutcome: func(_ *workload.Request, o workload.Outcome) { outcomes = append(outcomes, o) },
	}, func(req *workload.Request) {
		if !web.TryAccept(req) {
			req.Finish(workload.Outcome{OK: false, ResponseTime: eng.Now() - req.IssuedAt})
		}
	})
	g.Start()
	eng.Run(5 * time.Second)

	if len(outcomes) < 500 {
		t.Fatalf("only %d outcomes", len(outcomes))
	}
	okCount := 0
	for _, o := range outcomes {
		if o.OK {
			okCount++
			if o.ResponseTime <= 0 || o.ResponseTime > 100*time.Millisecond {
				t.Fatalf("implausible response time %v", o.ResponseTime)
			}
		}
	}
	if okCount != len(outcomes) {
		t.Fatalf("%d/%d requests failed in a healthy cluster", len(outcomes)-okCount, len(outcomes))
	}
	if web.Served() != uint64(okCount) {
		t.Fatalf("web.Served=%d, outcomes ok=%d", web.Served(), okCount)
	}
	// Both apps should have served a roughly even share.
	a, b := apps[0].Served(), apps[1].Served()
	if a == 0 || b == 0 {
		t.Fatalf("uneven distribution: %d vs %d", a, b)
	}
	diff := float64(a) - float64(b)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(a+b) > 0.05 {
		t.Fatalf("distribution skew: %d vs %d", a, b)
	}
}

func TestWebDropsWhenBacklogFull(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	apps := []*App{newTestApp(eng, "app1", db)}
	web := NewWeb(eng, WebConfig{
		Name: "web1", Cores: 1, Workers: 1, AcceptBacklog: 2, ConnPoolSize: 5,
		Policy: lb.TotalRequest{}, Mechanism: lb.NewModifiedGetEndpoint(),
		Writeback: quietWriteback(),
	}, apps)
	// Freeze the web CPU so the single worker never finishes.
	web.CPU().Stall(10 * time.Second)
	admitted := 0
	for i := 0; i < 10; i++ {
		req := &workload.Request{Interaction: testInteraction(), IssuedAt: eng.Now()}
		if web.TryAccept(req) {
			admitted++
		}
	}
	// 1 on the worker + 2 in the backlog.
	if admitted != 3 {
		t.Fatalf("admitted = %d, want 3", admitted)
	}
	if web.Drops() != 7 {
		t.Fatalf("Drops = %d, want 7", web.Drops())
	}
	if web.BacklogLen() != 2 || web.ActiveWorkers() != 1 {
		t.Fatalf("backlog=%d active=%d", web.BacklogLen(), web.ActiveWorkers())
	}
	if web.QueuedRequests() != 3 {
		t.Fatalf("QueuedRequests = %d", web.QueuedRequests())
	}
}

func TestWebErrorResponseWhenAllBackendsExhausted(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	apps := []*App{newTestApp(eng, "app1", db)}
	web := NewWeb(eng, WebConfig{
		Name: "web1", Cores: 8, Workers: 50, AcceptBacklog: 64, ConnPoolSize: 1,
		Policy: lb.TotalRequest{}, Mechanism: lb.NewModifiedGetEndpoint(),
		Writeback: quietWriteback(),
	}, apps)
	// Stall the app forever so its one endpoint never frees.
	apps[0].CPU().Stall(time.Hour)

	var failures int
	done := func(o workload.Outcome) {
		if !o.OK {
			failures++
		}
	}
	g := workload.NewGroup(eng, 5, workload.ClientConfig{
		ThinkTime: 20 * time.Millisecond,
		Mix:       workload.BrowseOnlyMix(),
		OnOutcome: func(_ *workload.Request, o workload.Outcome) { done(o) },
	}, func(req *workload.Request) {
		if !web.TryAccept(req) {
			req.Finish(workload.Outcome{OK: false})
		}
	})
	g.Start()
	eng.Run(2 * time.Second)
	if failures == 0 {
		t.Fatal("no error responses with all backends exhausted")
	}
	if web.Errors() == 0 {
		t.Fatal("web.Errors() = 0")
	}
}

func TestWebWorkerHandoffToBacklog(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	apps := []*App{newTestApp(eng, "app1", db)}
	web := NewWeb(eng, WebConfig{
		Name: "web1", Cores: 8, Workers: 1, AcceptBacklog: 8, ConnPoolSize: 5,
		Policy: lb.TotalRequest{}, Mechanism: lb.NewModifiedGetEndpoint(),
		Writeback: quietWriteback(),
	}, apps)
	completed := 0
	g := workload.NewGroup(eng, 4, workload.ClientConfig{
		ThinkTime: time.Millisecond,
		Mix:       workload.BrowseOnlyMix(),
		OnOutcome: func(_ *workload.Request, o workload.Outcome) {
			if o.OK {
				completed++
			}
		},
	}, func(req *workload.Request) {
		if !web.TryAccept(req) {
			req.Finish(workload.Outcome{OK: false})
		}
	})
	g.Start()
	eng.Run(2 * time.Second)
	if completed < 100 {
		t.Fatalf("single-worker web served only %d; backlog handoff broken?", completed)
	}
	if web.QueuedRequests() > 5 {
		t.Fatalf("residual queue %d", web.QueuedRequests())
	}
}

func TestWebValidations(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	db := newTestDB(eng)
	apps := []*App{newTestApp(eng, "app1", db)}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("no apps", func() {
		NewWeb(eng, WebConfig{Policy: lb.TotalRequest{}, Mechanism: lb.NewModifiedGetEndpoint()}, nil)
	})
	mustPanic("nil policy", func() {
		NewWeb(eng, WebConfig{Mechanism: lb.NewModifiedGetEndpoint()}, apps)
	})
	mustPanic("nil app db", func() { NewApp(eng, AppConfig{}, nil) })
	mustPanic("nil handle args", func() {
		newTestApp(eng, "appX", db).Handle(nil, nil, func() {})
	})
}

// Property: requests are conserved through the full web→app→db chain
// for any workload that fits the run horizon — served responses plus
// error responses plus drops equal the admitted attempts.
func TestQuickWebConservation(t *testing.T) {
	f := func(arrivalsRaw []uint8, seed uint64) bool {
		eng := sim.NewEngine(seed, seed^0xabcdef)
		db := NewDB(eng, DBConfig{Name: "db1", Cores: 4, Workers: 16})
		apps := []*App{
			NewApp(eng, AppConfig{Name: "a1", Cores: 4, Workers: 32, DBConns: 16, Writeback: quietWriteback()}, db),
			NewApp(eng, AppConfig{Name: "a2", Cores: 4, Workers: 32, DBConns: 16, Writeback: quietWriteback()}, db),
		}
		web := NewWeb(eng, WebConfig{
			Name: "w1", Cores: 4, Workers: 16, AcceptBacklog: 8, ConnPoolSize: 8,
			Policy: lb.TotalRequest{}, Mechanism: lb.NewModifiedGetEndpoint(),
			Writeback: quietWriteback(),
		}, apps)

		var admitted, dropped, finished uint64
		for i, gap := range arrivalsRaw {
			at := sim.Time(i) * sim.Time(gap%50) * 100 * time.Microsecond
			eng.At(at, func() {
				req := workload.NewRequest(uint64(i), 0, testInteraction(), eng.Now(),
					func(*workload.Request, workload.Outcome) { finished++ })
				if web.TryAccept(req) {
					admitted++
				} else {
					dropped++
					req.Finish(workload.Outcome{OK: false})
				}
			})
		}
		eng.Run(time.Hour)
		if uint64(len(arrivalsRaw)) != admitted+dropped {
			return false
		}
		// Everything admitted finished through the web path; every drop
		// finished through the caller; nothing finished twice (Finish
		// would have panicked).
		return web.Served()+web.Errors() == admitted && finished == admitted+dropped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
