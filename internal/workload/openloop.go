package workload

import (
	"millibalance/internal/sim"
)

// OpenLoopConfig configures a Poisson arrival process.
type OpenLoopConfig struct {
	// Rate is the mean arrival rate in requests per second.
	Rate float64
	// Mix is the interaction mix to sample.
	Mix Mix
	// FollowProb is the Markov successor-follow probability
	// (default 0.5); the open-loop generator keeps one shared
	// navigation chain.
	FollowProb float64
	// Clients is the virtual client population size used only to stamp
	// ClientID round-robin (for transport routing); it does not bound
	// concurrency. Default 1.
	Clients int
	// OnOutcome observes request outcomes.
	OnOutcome func(*Request, Outcome)
}

// OpenLoop issues requests with exponential inter-arrival times at a
// fixed mean rate, independent of completions. Unlike the closed-loop
// Group — whose clients stop issuing while their requests queue,
// throttling load exactly when the system struggles — an open-loop
// arrival process keeps pushing, which makes it the harsher (and for
// internet-facing front ends often the more realistic) workload model.
type OpenLoop struct {
	eng    *sim.Engine
	cfg    OpenLoopConfig
	submit SubmitFunc
	nav    *Navigator
	// fire and finish are o.arrive and o.finished, bound once.
	fire   func()
	finish func(*Request, Outcome)

	timer   sim.Timer
	started bool
	nextID  uint64
	issued  uint64
	stopped bool
}

// NewOpenLoop returns a generator; rate must be positive, the mix
// non-empty and submit non-nil.
func NewOpenLoop(eng *sim.Engine, cfg OpenLoopConfig, submit SubmitFunc) *OpenLoop {
	if submit == nil {
		panic("workload: NewOpenLoop with nil submit")
	}
	if cfg.Rate <= 0 {
		panic("workload: NewOpenLoop requires a positive rate")
	}
	if len(cfg.Mix.Interactions) == 0 {
		panic("workload: NewOpenLoop with empty mix")
	}
	if cfg.FollowProb == 0 {
		cfg.FollowProb = 0.5
	}
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	o := &OpenLoop{
		eng:    eng,
		cfg:    cfg,
		submit: submit,
		nav:    NewNavigator(eng, cfg.Mix, cfg.FollowProb),
	}
	o.fire, o.finish = o.arrive, o.finished
	return o
}

// Issued reports how many requests have been issued.
func (o *OpenLoop) Issued() uint64 { return o.issued }

// Start begins the arrival process. It may be called once.
func (o *OpenLoop) Start() {
	if o.started {
		panic("workload: OpenLoop.Start called twice")
	}
	o.started = true
	o.arm()
}

// Stop halts arrivals; in-flight requests still complete.
func (o *OpenLoop) Stop() {
	o.stopped = true
	o.eng.Stop(o.timer)
	o.timer = sim.Timer{}
}

func (o *OpenLoop) interarrival() sim.Time {
	return o.eng.Exponential(sim.Seconds(1 / o.cfg.Rate))
}

func (o *OpenLoop) arm() {
	o.timer = o.eng.Schedule(o.interarrival(), o.fire)
}

// arrive is one arrival event: issue a request and arm the next arrival.
func (o *OpenLoop) arrive() {
	if o.stopped {
		return
	}
	o.issue()
	o.arm()
}

func (o *OpenLoop) issue() {
	o.nextID++
	o.issued++
	o.submit(NewRequest(o.nextID, int((o.nextID-1)%uint64(o.cfg.Clients)), o.nav.Next(), o.eng.Now(), o.finish))
}

func (o *OpenLoop) finished(req *Request, out Outcome) {
	if o.cfg.OnOutcome != nil {
		o.cfg.OnOutcome(req, out)
	}
}
