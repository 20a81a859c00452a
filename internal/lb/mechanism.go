package lb

import (
	"time"

	"millibalance/internal/sim"
)

// Mechanism is the endpoint-acquisition strategy: given the chosen
// candidate, obtain a free connection endpoint or report failure. The
// callback style matters: the original mechanism spends virtual time
// polling, and during that whole window it occupies the caller (a web
// server worker thread) while the candidate's balancer state stays
// untouched — the paper's mechanism-level limitation.
//
// The interface is sealed: a mechanism keeps its loop state in the
// balancer's recycled dispatch record, so acquisitions allocate nothing.
type Mechanism interface {
	// Name identifies the mechanism in configs and reports.
	Name() string
	// acquire attempts to take an endpoint from d.cand and eventually
	// calls d.acquired exactly once. On ok=true the endpoint is held;
	// its release runs through the balancer's completion path.
	acquire(d *dispatch)
}

// Default timing constants from mod_jk: JK_SLEEP_DEF is 100 ms and
// cache_acquire_timeout is 300 ms.
const (
	DefaultAcquireSleep   = 100 * time.Millisecond
	DefaultAcquireTimeout = 300 * time.Millisecond
)

// OriginalGetEndpoint is Algorithm 1: poll the candidate's endpoint pool,
// sleeping Sleep between checks, while retry×Sleep < Timeout. The caller
// is blocked for the whole loop and the candidate remains Available the
// entire time, so concurrent workers keep choosing the same stalled
// candidate and pile up behind it.
type OriginalGetEndpoint struct {
	eng *sim.Engine
	// Sleep is JK_SLEEP_DEF; Timeout is cache_acquire_timeout.
	Sleep   sim.Time
	Timeout sim.Time
}

// NewOriginalGetEndpoint returns the stock mechanism with mod_jk's
// default timing.
func NewOriginalGetEndpoint(eng *sim.Engine) *OriginalGetEndpoint {
	return &OriginalGetEndpoint{eng: eng, Sleep: DefaultAcquireSleep, Timeout: DefaultAcquireTimeout}
}

// Name implements Mechanism.
func (*OriginalGetEndpoint) Name() string { return "original_get_endpoint" }

func (m *OriginalGetEndpoint) acquire(d *dispatch) {
	d.poller, d.polls = m, 0
	m.poll(d)
}

// poll is one iteration of Algorithm 1's loop; d.polls is its retry
// counter.
func (m *OriginalGetEndpoint) poll(d *dispatch) {
	sleep := m.Sleep
	if sleep <= 0 {
		sleep = DefaultAcquireSleep
	}
	c := d.cand
	// A candidate drained by the adaptive control plane mid-poll
	// frees its waiters at the next sweep instead of holding the
	// worker for the rest of the acquire timeout: quarantine means
	// no endpoint is coming, and every blocked worker here is one
	// less worker emptying the web accept queue (the paper's
	// amplification path from one stalled server to tier-wide
	// connection drops). Armed probes keep polling — measuring the
	// drained candidate is their whole purpose. Without quarantine
	// (static runs) this branch never triggers.
	if c.quarantined && !c.probeArmed {
		d.acquired(false)
		return
	}
	// Loop guard mirrors Algorithm 1: while retry*JK_SLEEP_DEF <
	// cache_acquire_timeout.
	if sim.Time(d.polls)*sleep >= m.Timeout {
		d.acquired(false)
		return
	}
	if c.tryEndpoint() {
		d.acquired(true)
		return
	}
	d.polls++
	m.eng.Schedule(sleep, d.repoll)
}

// onRepoll is the poll sleep's wake-up.
func (d *dispatch) onRepoll() { d.poller.poll(d) }

// ModifiedGetEndpoint is the paper's mechanism-level remedy (Section
// IV-C): check once, and on failure return immediately so the balancer
// marks the candidate Busy and moves on. The conservative choice —
// treating a millibottleneck like a busy server rather than waiting it
// out — keeps decisions fast and avoids distinguishing millibottlenecks
// from permanent failures.
type ModifiedGetEndpoint struct{}

// NewModifiedGetEndpoint returns the remedy mechanism.
func NewModifiedGetEndpoint() *ModifiedGetEndpoint { return &ModifiedGetEndpoint{} }

// Name implements Mechanism.
func (*ModifiedGetEndpoint) Name() string { return "modified_get_endpoint" }

func (*ModifiedGetEndpoint) acquire(d *dispatch) {
	d.acquired(d.cand.tryEndpoint())
}

// MechanismByName returns the mechanism with the given name. The original
// mechanism needs the engine for its virtual-time sleeps.
func MechanismByName(name string, eng *sim.Engine) (Mechanism, bool) {
	switch name {
	case "original", "original_get_endpoint":
		return NewOriginalGetEndpoint(eng), true
	case "modified", "modified_get_endpoint":
		return NewModifiedGetEndpoint(), true
	default:
		return nil, false
	}
}

// MechanismNames lists the available mechanism names.
func MechanismNames() []string {
	return []string{"original_get_endpoint", "modified_get_endpoint"}
}
