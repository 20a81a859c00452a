package lb

import (
	"testing"
	"testing/quick"
	"time"

	"millibalance/internal/sim"
)

// harness wires a balancer over fake backends whose completion behaviour
// the test controls.
type harness struct {
	eng *sim.Engine
	bal *Balancer
	// pending holds completion tickets by candidate name.
	pending map[string][]Ticket
	// dispatched counts by candidate name.
	dispatched map[string]int
	rejected   int
}

func newHarness(t *testing.T, policy Policy, mech Mechanism, endpoints int, names ...string) *harness {
	t.Helper()
	eng := sim.NewEngine(1, 2)
	if m, ok := mech.(*OriginalGetEndpoint); ok && m.eng == nil {
		m.eng = eng
	}
	var cands []*Candidate
	for _, n := range names {
		cands = append(cands, NewCandidate(n, sim.NewPool(endpoints)))
	}
	h := &harness{
		eng:        eng,
		pending:    map[string][]Ticket{},
		dispatched: map[string]int{},
	}
	// Single-sweep config keeps rejection behaviour synchronous for the
	// unit tests (sweep retries get dedicated tests below), and a tiny
	// ErrorAfter lets the escalation tests reach Error without waiting
	// out the production 2 s failure-span gate.
	h.bal = New(eng, policy, mech, cands, Config{Sweeps: 1, ErrorAfter: time.Nanosecond})
	return h
}

// submit dispatches one request; the backend completes only when the test
// calls completeOne.
func (h *harness) submit(info RequestInfo) {
	h.bal.Dispatch(info,
		func(c *Candidate, tk Ticket) {
			h.dispatched[c.Name()]++
			h.pending[c.Name()] = append(h.pending[c.Name()], tk)
		},
		func() { h.rejected++ })
}

// completeOne finishes the oldest in-flight request on the named backend.
func (h *harness) completeOne(name string) {
	q := h.pending[name]
	if len(q) == 0 {
		return
	}
	tk := q[0]
	h.pending[name] = q[1:]
	tk.Done()
}

func origMech(eng *sim.Engine) *OriginalGetEndpoint { return NewOriginalGetEndpoint(eng) }

func TestBalancerRoundRobinUnderTotalRequest(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 10, "app1", "app2", "app3", "app4")
	for i := 0; i < 40; i++ {
		h.submit(RequestInfo{})
		// Complete everything immediately: stable state.
		for _, n := range []string{"app1", "app2", "app3", "app4"} {
			h.completeOne(n)
		}
	}
	for n, got := range h.dispatched {
		if got != 10 {
			t.Fatalf("%s dispatched %d, want even 10 (dist=%v)", n, got, h.dispatched)
		}
	}
}

func TestBalancerPicksLowestLBValue(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 10, "app1", "app2")
	h.bal.Candidates()[0].lbValue = 5
	h.submit(RequestInfo{})
	if h.dispatched["app2"] != 1 {
		t.Fatalf("dispatched to %v, want app2 (lower lb_value)", h.dispatched)
	}
}

func TestBalancerSkipsBusyCandidate(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 1, "app1", "app2")
	// Exhaust app1's endpoint pool so the next dispatch to it fails.
	h.submit(RequestInfo{}) // goes to app1, holds its only endpoint
	h.submit(RequestInfo{}) // app2
	h.completeOne("app2")
	// app1 now has lb 1, app2 has 1. Tie → app1 chosen → acquire fails
	// (pool empty) → Busy → retry lands on app2.
	h.submit(RequestInfo{})
	if h.dispatched["app2"] != 2 {
		t.Fatalf("dist=%v, want second request on app2", h.dispatched)
	}
	if h.bal.Candidates()[0].State() != StateBusy {
		t.Fatalf("app1 state = %v, want busy", h.bal.Candidates()[0].State())
	}
}

func TestBusyRecoversAfterInterval(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 1, "app1", "app2")
	h.submit(RequestInfo{}) // app1 holds endpoint
	h.submit(RequestInfo{}) // app2 holds endpoint... also exhausts app2
	h.submit(RequestInfo{}) // both exhausted → app1 busy, app2 busy → retries → reject eventually
	c1 := h.bal.Candidates()[0]
	if c1.State() != StateBusy {
		t.Fatalf("app1 = %v, want busy", c1.State())
	}
	h.eng.Run(150 * time.Millisecond) // default BusyRecovery is 100ms
	if c1.State() != StateAvailable {
		t.Fatalf("app1 = %v after recovery interval, want available", c1.State())
	}
}

func TestCompletionReadmitsBusyImmediately(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 1, "app1", "app2")
	h.submit(RequestInfo{}) // app1
	h.submit(RequestInfo{}) // app2
	h.submit(RequestInfo{}) // fails everywhere; both busy
	c1 := h.bal.Candidates()[0]
	if c1.State() != StateBusy {
		t.Fatalf("app1 = %v", c1.State())
	}
	h.completeOne("app1")
	if c1.State() != StateAvailable {
		t.Fatalf("app1 = %v after completion, want available", c1.State())
	}
	if c1.FreeEndpoints() != 1 {
		t.Fatalf("endpoint not released: free=%d", c1.FreeEndpoints())
	}
}

func TestErrorEscalationAndRecovery(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 1, "app1", "app2")
	c1 := h.bal.Candidates()[0]
	h.submit(RequestInfo{}) // app1 holds its endpoint forever
	// Each later submit that ties or undercuts on lb_value picks app1,
	// fails, marks it Busy, and retries app2. Busy recovery readmits
	// app1 between rounds without resetting its consecutive-failure
	// count, so repeated rounds reach the error threshold (3).
	for i := 0; i < 5; i++ {
		h.submit(RequestInfo{})
		h.completeOne("app2")
		h.eng.Run(h.eng.Now() + 150*time.Millisecond)
	}
	if c1.State() != StateError {
		t.Fatalf("app1 = %v after repeated failures, want error", c1.State())
	}
	// While in Error, dispatches must not consider app1 even via the
	// busy-retry path.
	before := h.dispatched["app1"]
	h.submit(RequestInfo{})
	h.completeOne("app2")
	if h.dispatched["app1"] != before {
		t.Fatal("error candidate was dispatched to")
	}
	// Error recovery (default 10s) readmits it.
	h.eng.Run(h.eng.Now() + 11*time.Second)
	if c1.State() != StateAvailable {
		t.Fatalf("app1 = %v after error recovery, want available", c1.State())
	}
}

func TestRejectWhenAllCandidatesExhausted(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 1, "app1", "app2")
	h.submit(RequestInfo{})
	h.submit(RequestInfo{})
	h.submit(RequestInfo{}) // nothing free anywhere
	if h.rejected != 1 {
		t.Fatalf("rejected = %d, want 1", h.rejected)
	}
	if h.bal.Rejects() != 1 {
		t.Fatalf("Rejects() = %d", h.bal.Rejects())
	}
}

func TestRejectWhenEverythingInError(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{NewCandidate("app1", sim.NewPool(1))}
	bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands,
		Config{ErrorThreshold: 2, ErrorAfter: time.Nanosecond, Sweeps: 1})
	cands[0].tryEndpoint() // exhaust
	rejected := 0
	bal.Dispatch(RequestInfo{}, func(*Candidate, Ticket) {}, func() { rejected++ })
	eng.Run(time.Millisecond) // give the failure span some width
	bal.Dispatch(RequestInfo{}, func(*Candidate, Ticket) {}, func() { rejected++ })
	if cands[0].State() != StateError {
		t.Fatalf("state = %v, want error after persistent failures", cands[0].State())
	}
	bal.Dispatch(RequestInfo{}, func(*Candidate, Ticket) {}, func() { rejected++ })
	if rejected != 3 {
		t.Fatalf("rejected = %d, want 3", rejected)
	}
}

func TestDispatchHookFires(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 5, "app1", "app2")
	var hooked []string
	h.bal.SetDispatchHook(func(c *Candidate) { hooked = append(hooked, c.Name()) })
	h.submit(RequestInfo{})
	h.submit(RequestInfo{})
	if len(hooked) != 2 {
		t.Fatalf("hook fired %d times", len(hooked))
	}
}

func TestRejectHookFires(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 1, "app1")
	hooked := 0
	h.bal.SetRejectHook(func() { hooked++ })
	h.submit(RequestInfo{})
	h.submit(RequestInfo{})
	if hooked != 1 {
		t.Fatalf("reject hook fired %d times", hooked)
	}
}

func TestDoubleCompletionPanics(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{NewCandidate("app1", sim.NewPool(2))}
	bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands, Config{})
	var done func()
	bal.Dispatch(RequestInfo{}, func(_ *Candidate, tk Ticket) { done = tk.Done }, func() {})
	done()
	defer func() {
		if recover() == nil {
			t.Fatal("double completion did not panic")
		}
	}()
	done()
}

func TestSnapshotContents(t *testing.T) {
	h := newHarness(t, CurrentLoad{}, NewModifiedGetEndpoint(), 3, "app1", "app2")
	h.submit(RequestInfo{})
	snaps := h.bal.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot count = %d", len(snaps))
	}
	if snaps[0].Name != "app1" || snaps[0].InFlight != 1 || snaps[0].LBValue != 1 ||
		snaps[0].Dispatched != 1 || snaps[0].FreeEndpoints != 2 {
		t.Fatalf("snapshot = %+v", snaps[0])
	}
	if snaps[1].InFlight != 0 || snaps[1].State != StateAvailable {
		t.Fatalf("idle snapshot = %+v", snaps[1])
	}
}

func TestNewValidations(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{newCand("a", 1)}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil policy", func() { New(eng, nil, NewModifiedGetEndpoint(), cands, Config{}) })
	mustPanic("nil mechanism", func() { New(eng, TotalRequest{}, nil, cands, Config{}) })
	mustPanic("no candidates", func() { New(eng, TotalRequest{}, NewModifiedGetEndpoint(), nil, Config{}) })
	mustPanic("nil send", func() {
		b := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands, Config{})
		b.Dispatch(RequestInfo{}, nil, func() {})
	})
}

// TestInstabilityPileUpWithOriginalMechanism reproduces the paper's core
// finding at the unit level: under total_request with the original
// get_endpoint, once a stalled candidate's endpoint pool is exhausted,
// every new dispatch keeps choosing it (its lb_value is frozen at the
// minimum while the state stays Available) and piles up inside the
// 300 ms polling window, starving the healthy candidate.
func TestInstabilityPileUpWithOriginalMechanism(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	stalled := NewCandidate("stalled", sim.NewPool(2))
	healthy := NewCandidate("healthy", sim.NewPool(100))
	bal := New(eng, TotalRequest{}, NewOriginalGetEndpoint(eng), []*Candidate{stalled, healthy}, Config{})

	dispatched := map[string]int{}
	// The stalled backend never completes; the healthy one completes in
	// 1ms of virtual time.
	send := func(c *Candidate, tk Ticket) {
		dispatched[c.Name()]++
		if c.Name() == "healthy" {
			eng.Schedule(time.Millisecond, tk.Done)
		}
	}
	submit := func() { bal.Dispatch(RequestInfo{}, send, func() {}) }

	// Issue one request every 10ms for 250ms — all inside the original
	// mechanism's 300ms window.
	for i := 0; i < 25; i++ {
		eng.Schedule(sim.Time(i)*10*time.Millisecond, submit)
	}
	eng.Run(250 * time.Millisecond)

	// The first two dispatches exhaust the stalled pool (tie-break picks
	// it first, then alternation). After that, every chooser sees the
	// stalled candidate with the minimal, frozen lb_value and Available
	// state, so all remaining submissions are stuck polling it.
	if dispatched["stalled"] != 2 {
		t.Fatalf("stalled dispatched %d, want its 2 pool slots", dispatched["stalled"])
	}
	if dispatched["healthy"] >= 5 {
		t.Fatalf("healthy dispatched %d during the stall — pile-up did not reproduce", dispatched["healthy"])
	}
	if stalled.State() != StateAvailable {
		t.Fatalf("stalled state = %v during the window, want available (the limitation)", stalled.State())
	}

	// After the polling windows expire, the stuck workers fail over and
	// the healthy candidate absorbs the backlog.
	eng.Run(time.Second)
	if got := dispatched["healthy"]; got != 23 {
		t.Fatalf("healthy dispatched %d after failover, want 23", got)
	}
}

// TestModifiedMechanismAvoidsPileUp verifies the mechanism remedy: the
// same scenario, but the balancer fails fast, marks the stalled candidate
// Busy, and routes every subsequent request to the healthy candidate with
// no dead time.
func TestModifiedMechanismAvoidsPileUp(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	stalled := NewCandidate("stalled", sim.NewPool(2))
	healthy := NewCandidate("healthy", sim.NewPool(100))
	bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), []*Candidate{stalled, healthy}, Config{})

	dispatched := map[string]int{}
	var healthyLatency []sim.Time
	send := func(c *Candidate, tk Ticket) {
		dispatched[c.Name()]++
		if c.Name() == "healthy" {
			healthyLatency = append(healthyLatency, eng.Now())
			eng.Schedule(time.Millisecond, tk.Done)
		}
	}
	for i := 0; i < 25; i++ {
		i := i
		eng.Schedule(sim.Time(i)*10*time.Millisecond, func() {
			bal.Dispatch(RequestInfo{}, send, func() {})
		})
	}
	eng.Run(250 * time.Millisecond)

	if dispatched["stalled"] != 2 {
		t.Fatalf("stalled dispatched %d, want 2", dispatched["stalled"])
	}
	if dispatched["healthy"] != 23 {
		t.Fatalf("healthy dispatched %d during the stall, want all 23 remaining", dispatched["healthy"])
	}
	// Every healthy dispatch happened at its submission instant — no
	// polling dead time.
	for i, at := range healthyLatency {
		if at%(10*time.Millisecond) != 0 {
			t.Fatalf("healthy dispatch %d delayed to %v", i, at)
		}
	}
}

// TestCurrentLoadAvoidsStalledCandidate verifies the policy remedy: even
// with the original mechanism, current_load raises the stalled
// candidate's lb_value above the healthy one's as its in-flight requests
// accumulate, so new arrivals stop choosing it before its pool runs dry.
func TestCurrentLoadAvoidsStalledCandidate(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	stalled := NewCandidate("stalled", sim.NewPool(25))
	healthy := NewCandidate("healthy", sim.NewPool(25))
	bal := New(eng, CurrentLoad{}, NewOriginalGetEndpoint(eng), []*Candidate{stalled, healthy}, Config{})

	dispatched := map[string]int{}
	send := func(c *Candidate, tk Ticket) {
		dispatched[c.Name()]++
		if c.Name() == "healthy" {
			eng.Schedule(time.Millisecond, tk.Done)
		}
	}
	for i := 0; i < 50; i++ {
		i := i
		eng.Schedule(sim.Time(i)*5*time.Millisecond, func() {
			bal.Dispatch(RequestInfo{}, send, func() {})
		})
	}
	eng.Run(250 * time.Millisecond)

	// current_load parks at most a couple of requests on the stalled
	// candidate (its lb_value then stays above the healthy candidate's
	// oscillating 0/1).
	if dispatched["stalled"] > 3 {
		t.Fatalf("stalled dispatched %d under current_load, want ≤3", dispatched["stalled"])
	}
	if dispatched["healthy"] < 45 {
		t.Fatalf("healthy dispatched %d, want ≥45", dispatched["healthy"])
	}
	if stalled.LBValue() <= healthy.LBValue() {
		t.Fatalf("stalled lb=%v not above healthy lb=%v", stalled.LBValue(), healthy.LBValue())
	}
}

func TestSweepRetrySucceedsWhenCapacityFrees(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{NewCandidate("app1", sim.NewPool(1))}
	bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands,
		Config{Sweeps: 3, SweepPause: 100 * time.Millisecond})

	var firstDone func()
	bal.Dispatch(RequestInfo{}, func(_ *Candidate, tk Ticket) { firstDone = tk.Done }, func() {})

	// Second dispatch finds the pool exhausted and must re-sweep.
	var dispatchedAt sim.Time = -1
	rejected := false
	bal.Dispatch(RequestInfo{},
		func(_ *Candidate, tk Ticket) {
			dispatchedAt = eng.Now()
			tk.Done()
		},
		func() { rejected = true })
	// Free the endpoint between sweep 1 and sweep 2.
	eng.Schedule(50*time.Millisecond, func() { firstDone() })
	eng.Run(time.Second)
	if rejected {
		t.Fatal("dispatch rejected despite capacity freeing before sweep 2")
	}
	if dispatchedAt != 100*time.Millisecond {
		t.Fatalf("dispatched at %v, want on the 100ms sweep", dispatchedAt)
	}
}

func TestSweepBudgetExhaustedRejects(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	pool := sim.NewPool(1)
	pool.TryAcquire() // hold the only endpoint forever
	cands := []*Candidate{NewCandidate("app1", pool)}
	bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands,
		Config{Sweeps: 3, SweepPause: 100 * time.Millisecond})
	var rejectedAt sim.Time = -1
	bal.Dispatch(RequestInfo{}, func(*Candidate, Ticket) {}, func() { rejectedAt = eng.Now() })
	eng.Run(time.Second)
	// Sweeps at 0, 100, 200ms all fail; rejection on the third sweep.
	if rejectedAt != 200*time.Millisecond {
		t.Fatalf("rejected at %v, want 200ms", rejectedAt)
	}
	if bal.Rejects() != 1 {
		t.Fatalf("Rejects = %d", bal.Rejects())
	}
}

// Property: with healthy, identical backends under total_request, the
// dispatch counts never diverge by more than one, for any request
// pattern where each request completes before the next (stable state).
func TestQuickTotalRequestFairness(t *testing.T) {
	f := func(pattern []uint8, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		eng := sim.NewEngine(31, 37)
		cands := make([]*Candidate, n)
		for i := range cands {
			cands[i] = NewCandidate(string(rune('a'+i)), sim.NewPool(4))
		}
		bal := New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands, Config{Sweeps: 1})
		counts := map[*Candidate]uint64{}
		for range pattern {
			bal.Dispatch(RequestInfo{}, func(c *Candidate, tk Ticket) {
				counts[c]++
				tk.Done()
			}, func() { t.Error("reject in healthy cluster") })
		}
		var minC, maxC uint64
		first := true
		for _, c := range cands {
			v := counts[c]
			if first {
				minC, maxC = v, v
				first = false
			}
			if v < minC {
				minC = v
			}
			if v > maxC {
				maxC = v
			}
		}
		return maxC-minC <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
