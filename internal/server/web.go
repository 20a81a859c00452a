package server

import (
	"millibalance/internal/admission"
	"millibalance/internal/lb"
	"millibalance/internal/netmodel"
	"millibalance/internal/obs"
	"millibalance/internal/resource"
	"millibalance/internal/sim"
	"millibalance/internal/workload"
)

// WebConfig configures a web (Apache-like) server.
type WebConfig struct {
	// Name identifies the server in metrics.
	Name string
	// Cores is the CPU core count.
	Cores int
	// Workers is the worker-thread limit (Apache MaxClients; 200 in the
	// paper's configuration).
	Workers int
	// AcceptBacklog is the listen queue capacity; connections arriving
	// with a full backlog are dropped and retransmitted by the client.
	AcceptBacklog int
	// ConnPoolSize is the endpoint pool per application server (mod_jk
	// connection_pool_size; 25 in the paper's configuration).
	ConnPoolSize int
	// Policy and Mechanism select the balancer behaviour; LB tunes the
	// 3-state machine.
	Policy    lb.Policy
	Mechanism lb.Mechanism
	LB        lb.Config
	// LinkLatency is the one-way latency to the application tier.
	LinkLatency sim.Time
	// LogBytesPerRequest is appended to the web server's own access log
	// per response; flushed by Writeback (the Apache-side
	// millibottleneck source of Fig. 2).
	LogBytesPerRequest int64
	// Writeback configures the web server's writeback daemon.
	Writeback resource.WritebackConfig
	// Admission, when non-nil, puts an overload-control gate in front
	// of the worker pool: requests pass its concurrency limiter before
	// competing for workers, wait in a bounded CoDel-judged queue when
	// the limit is reached, and are shed (an error response, not a
	// dropped SYN — the client does not retransmit) when the plane
	// refuses them. All gate activity runs on the engine clock.
	Admission *admission.Gate
	// Classify assigns each request a priority class when admission is
	// armed; nil classifies everything Interactive.
	Classify func(*workload.Request) admission.Class
}

// Web is the web tier server: it accepts client connections into a
// bounded backlog, runs each request on a worker thread, and forwards it
// to an application server chosen by its private mod_jk-style balancer.
// The worker thread stays occupied until the response (or rejection)
// goes back to the client — including any time the original get_endpoint
// mechanism spends polling a stalled backend, which is how queue
// amplification reaches this tier.
type Web struct {
	eng      *sim.Engine
	name     string
	cpu      *resource.CPU
	workers  *sim.Pool
	listener *netmodel.Listener
	balancer *lb.Balancer
	apps     map[string]*App
	wb       *resource.Writeback
	link     sim.Time
	logBytes int64
	adm      *admission.Gate
	admQ     *admission.Queue
	classify func(*workload.Request) admission.Class

	served uint64
	errors uint64
	sheds  uint64
	free   sim.FreeList[webCall]
}

// webCall is one request's stay in a web server, from TryAccept to its
// response or shed: the accept backlog or admission-queue wait, the CPU
// burst, the balancer dispatch, and the link hops around the app tier.
// Records are owned by their Web and recycled after the last event that
// touches them; every callback they hand to the listener, the admission
// queue, the CPU, the balancer, the engine and the app server is a
// method value bound once when the record is created, so a request
// allocates nothing here in steady state.
type webCall struct {
	w      *Web
	req    *workload.Request
	start  sim.Time // start of the traced CPU burst
	app    *App
	ticket lb.Ticket

	onHandle, onCPU, onAtApp, onAppDone, onBack, onReject, onShed func()
	onTracedCPU                                                   func(queued, frozen sim.Time)
	onSend                                                        func(*lb.Candidate, lb.Ticket)
	onAdmit                                                       func(admitted bool)
}

// NewWeb returns a web server balancing across the given application
// servers.
func NewWeb(eng *sim.Engine, cfg WebConfig, apps []*App) *Web {
	if len(apps) == 0 {
		panic("server: NewWeb with no application servers")
	}
	if cfg.Policy == nil || cfg.Mechanism == nil {
		panic("server: NewWeb with nil policy or mechanism")
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.ConnPoolSize < 1 {
		cfg.ConnPoolSize = 1
	}
	w := &Web{
		eng:      eng,
		name:     cfg.Name,
		cpu:      resource.NewCPU(eng, cfg.Cores),
		workers:  sim.NewPool(cfg.Workers),
		listener: netmodel.NewListener(cfg.AcceptBacklog),
		apps:     make(map[string]*App, len(apps)),
		link:     cfg.LinkLatency,
		logBytes: cfg.LogBytesPerRequest,
	}
	w.wb = resource.NewWriteback(eng, cfg.Writeback, w.cpu.Stall)
	w.wb.Start()
	if cfg.Admission != nil {
		w.adm = cfg.Admission
		w.admQ = admission.NewQueue(w.adm, eng.Now, func(d sim.Time, fn func()) { eng.Schedule(d, fn) })
		w.classify = cfg.Classify
		if w.classify == nil {
			w.classify = func(*workload.Request) admission.Class { return admission.Interactive }
		}
	}
	cands := make([]*lb.Candidate, 0, len(apps))
	for _, a := range apps {
		w.apps[a.Name()] = a
		cands = append(cands, lb.NewCandidate(a.Name(), sim.NewPool(cfg.ConnPoolSize)))
	}
	w.balancer = lb.New(eng, cfg.Policy, cfg.Mechanism, cands, cfg.LB)
	return w
}

// Name returns the server name.
func (w *Web) Name() string { return w.name }

// CPU exposes the CPU for metrics sampling and stall injection.
func (w *Web) CPU() *resource.CPU { return w.cpu }

// Writeback exposes the writeback daemon.
func (w *Web) Writeback() *resource.Writeback { return w.wb }

// Balancer exposes the balancer for metrics (lb_value snapshots,
// dispatch-distribution hooks).
func (w *Web) Balancer() *lb.Balancer { return w.balancer }

// Served reports successfully answered requests.
func (w *Web) Served() uint64 { return w.served }

// Errors reports requests answered with an error (all backends
// unavailable).
func (w *Web) Errors() uint64 { return w.errors }

// Drops reports connections dropped at the accept queue.
func (w *Web) Drops() uint64 { return w.listener.Drops() }

// Admission exposes the overload-control gate (nil when disabled).
func (w *Web) Admission() *admission.Gate { return w.adm }

// AdmissionSheds reports requests refused by the admission plane.
func (w *Web) AdmissionSheds() uint64 { return w.sheds }

// QueuedRequests reports requests inside the server: waiting in the
// accept backlog plus held by worker threads.
func (w *Web) QueuedRequests() int { return w.listener.Len() + w.workers.InUse() }

// BacklogLen reports connections waiting in the accept queue.
func (w *Web) BacklogLen() int { return w.listener.Len() }

// ActiveWorkers reports worker threads currently occupied.
func (w *Web) ActiveWorkers() int { return w.workers.InUse() }

// TryAccept admits a client request. It reports false when the accept
// queue overflows, in which case the caller (the client's transport)
// retransmits on its schedule. With admission armed, the overload gate
// runs first: refused requests are shed with an error response (they
// report true — an explicit refusal, not a dropped SYN).
func (w *Web) TryAccept(req *workload.Request) bool {
	r := w.newCall(req)
	if w.adm == nil {
		if w.accept(r) {
			return true
		}
		w.retire(r)
		return false
	}
	cls := w.classify(req)
	if w.adm.TryAcquire(cls) {
		if w.accept(r) {
			req.AdmittedAt = w.eng.Now()
			return true
		}
		w.retire(r)
		w.adm.Cancel()
		return false
	}
	now := w.eng.Now()
	if cls == admission.Background {
		// Background never queues: no headroom means shed now.
		w.adm.Drop(now, cls, admission.ReasonPriority)
		w.shed(r)
		return true
	}
	if w.admQ.Push(cls, r.onAdmit) {
		req.Span.Enter(obs.StageWebAcceptQueue, now)
		return true
	}
	w.adm.Drop(now, cls, admission.ReasonQueueFull)
	w.shed(r)
	return true
}

// newCall takes a record from the free list, or makes one and binds its
// callbacks.
func (w *Web) newCall(req *workload.Request) *webCall {
	r := w.free.Get()
	if r == nil {
		r = &webCall{w: w}
		r.onHandle = r.handle
		r.onCPU = r.cpuDone
		r.onTracedCPU = r.tracedCPUDone
		r.onSend = r.send
		r.onReject = r.rejected
		r.onAtApp = r.atApp
		r.onAppDone = r.appDone
		r.onBack = r.back
		r.onAdmit = r.admitted
		r.onShed = r.shedDone
	}
	r.req = req
	return r
}

// retire returns a finished record to the free list.
func (w *Web) retire(r *webCall) {
	r.req, r.app, r.ticket = nil, nil, lb.Ticket{}
	w.free.Put(r)
}

// accept places a request on a worker or the accept backlog — the
// admission-free path. On false the caller still owns r.
func (w *Web) accept(r *webCall) bool {
	if w.workers.TryAcquire() {
		r.handle()
		return true
	}
	if w.listener.Offer(r.onHandle) {
		r.req.Span.Enter(obs.StageWebAcceptQueue, w.eng.Now())
		return true
	}
	return false
}

// admitted completes an admission-queue wait: the queue either handed
// the request a concurrency slot or shed it (MaxWait or CoDel, already
// recorded by the queue).
func (r *webCall) admitted(ok bool) {
	w := r.w
	if !ok {
		w.shed(r)
		return
	}
	r.req.AdmittedAt = w.eng.Now()
	if !w.accept(r) {
		// Workers and backlog both full even though the limiter let us
		// through — shed rather than queue a second time.
		w.adm.Cancel()
		w.adm.Drop(w.eng.Now(), admission.Interactive, admission.ReasonQueueFull)
		w.shed(r)
	}
}

// shed answers a request the admission plane refused. The refusal is
// an immediate error response; the finish is deferred one engine event
// so the caller's span bookkeeping (retransmit-wait exit) lands first.
func (w *Web) shed(r *webCall) {
	w.sheds++
	r.req.Span.Exit(obs.StageWebAcceptQueue, w.eng.Now())
	w.eng.Schedule(0, r.onShed)
}

func (r *webCall) shedDone() {
	w, req := r.w, r.req
	w.retire(r)
	req.Web = w.name
	req.Finish(workload.Outcome{
		OK:           false,
		ResponseTime: w.eng.Now() - req.IssuedAt,
		Retransmits:  req.Retransmits,
	})
}

// handle runs with a worker token held.
func (r *webCall) handle() {
	w, req := r.w, r.req
	sp := req.Span
	sp.Exit(obs.StageWebAcceptQueue, w.eng.Now())
	sp.Enter(obs.StageWebThread, w.eng.Now())
	demand := sampleDemand(w.eng, req.Interaction.WebDemand)
	if sp == nil {
		w.cpu.Submit(demand, r.onCPU)
		return
	}
	r.start = w.eng.Now()
	w.cpu.SubmitTraced(demand, r.onTracedCPU)
}

func (r *webCall) tracedCPUDone(_, frozen sim.Time) {
	sp := r.req.Span
	sp.Add(obs.StageWebCPU, r.w.eng.Now()-r.start-frozen)
	sp.Add(obs.StageStallFrozen, frozen)
	r.cpuDone()
}

// cpuDone hands the request to the balancer once its CPU burst is done.
func (r *webCall) cpuDone() {
	req := r.req
	it := req.Interaction
	r.w.balancer.Dispatch(lb.RequestInfo{
		RequestBytes:  it.RequestBytes,
		ResponseBytes: it.ResponseBytes,
		// Session identity (ignored unless the balancer has sticky
		// sessions enabled); +1 keeps client 0 distinguishable from
		// "no session".
		SessionID: uint64(req.ClientID) + 1,
		Span:      req.Span,
	}, r.onSend, r.onReject)
}

// send forwards the request to the chosen app server.
func (r *webCall) send(c *lb.Candidate, t lb.Ticket) {
	w := r.w
	r.req.Backend = c.Name()
	r.app = w.apps[c.Name()]
	r.ticket = t
	r.req.Span.Add(obs.StageLink, 2*w.link) // forward + response hops
	w.eng.Schedule(w.link, r.onAtApp)       // forward to the app tier
}

func (r *webCall) atApp()   { r.app.Handle(r.req.Interaction, r.req.Span, r.onAppDone) }
func (r *webCall) appDone() { r.w.eng.Schedule(r.w.link, r.onBack) } // response back

func (r *webCall) back() {
	r.ticket.Done()
	r.w.respond(r, true)
}

func (r *webCall) rejected() { r.w.respond(r, false) }

// respond finishes the request toward the client, frees (or hands
// over) the worker thread and retires the record.
func (w *Web) respond(r *webCall, ok bool) {
	req := r.req
	w.retire(r)
	now := w.eng.Now()
	req.Span.Exit(obs.StageWebThread, now)
	req.Web = w.name
	if ok {
		w.served++
	} else {
		w.errors++
	}
	if w.logBytes > 0 {
		w.wb.AddDirty(w.logBytes)
	}
	// The admit→respond time is read before Finish: the request belongs
	// to its client once finished.
	rtt := now - req.AdmittedAt
	req.Finish(workload.Outcome{
		OK:           ok,
		ResponseTime: now - req.IssuedAt,
		Retransmits:  req.Retransmits,
	})
	// Hand the worker token to the oldest backlogged connection, if
	// any; otherwise release it.
	if !w.listener.Accept() {
		w.workers.Release()
	}
	// Free the admission slot last, after the worker handoff, so a
	// drained waiter finds the worker (or the backlog head) already
	// settled; the release feeds the observed admit→respond time to
	// the adaptive limiter.
	if w.adm != nil {
		w.adm.Release(now, rtt, ok)
	}
}
