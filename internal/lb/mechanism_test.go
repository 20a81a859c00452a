package lb

import (
	"testing"
	"time"

	"millibalance/internal/sim"
)

// acquireOn runs one acquisition on c outside a balancer, on a bare
// dispatch record whose verdict goes to done.
func acquireOn(m Mechanism, c *Candidate, done func(ok bool)) {
	d := &dispatch{cand: c, acquired: done}
	d.repoll = d.onRepoll
	m.acquire(d)
}

func TestOriginalAcquireImmediateSuccess(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	m := NewOriginalGetEndpoint(eng)
	c := newCand("app1", 1)
	var got bool
	acquireOn(m, c, func(ok bool) { got = ok })
	if !got {
		t.Fatal("acquire with a free endpoint did not succeed synchronously")
	}
	if c.FreeEndpoints() != 0 {
		t.Fatal("endpoint not held after acquire")
	}
}

func TestOriginalAcquirePollsThenTimesOut(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	m := NewOriginalGetEndpoint(eng)
	c := newCand("app1", 1)
	c.tryEndpoint() // exhaust the pool
	var doneAt sim.Time = -1
	var result bool
	acquireOn(m, c, func(ok bool) { result = ok; doneAt = eng.Now() })
	eng.Run(time.Second)
	if result {
		t.Fatal("acquire succeeded with an exhausted pool")
	}
	// Algorithm 1 with 100ms sleep / 300ms timeout: checks at 0, 100,
	// 200ms; the guard fails at 300ms.
	if doneAt != 300*time.Millisecond {
		t.Fatalf("acquire gave up at %v, want 300ms", doneAt)
	}
}

func TestOriginalAcquirePicksUpFreedEndpoint(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	m := NewOriginalGetEndpoint(eng)
	c := newCand("app1", 1)
	c.tryEndpoint()
	var doneAt sim.Time = -1
	var result bool
	acquireOn(m, c, func(ok bool) { result = ok; doneAt = eng.Now() })
	// Endpoint frees at 150ms; next poll is at 200ms.
	eng.Schedule(150*time.Millisecond, func() { c.releaseEndpoint() })
	eng.Run(time.Second)
	if !result || doneAt != 200*time.Millisecond {
		t.Fatalf("acquire = %v at %v, want success at 200ms poll", result, doneAt)
	}
}

func TestOriginalAcquireBlocksCallerForFullWindow(t *testing.T) {
	// The defining mechanism limitation: the caller learns nothing for
	// the whole timeout, and the candidate's state is untouched
	// throughout — verified here by observing no state change.
	eng := sim.NewEngine(1, 2)
	m := NewOriginalGetEndpoint(eng)
	c := newCand("app1", 1)
	c.tryEndpoint()
	acquireOn(m, c, func(bool) {})
	eng.Run(250 * time.Millisecond)
	if c.State() != StateAvailable {
		t.Fatalf("candidate state changed to %v during acquire wait", c.State())
	}
}

func TestOriginalAcquireCustomTiming(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	m := &OriginalGetEndpoint{Sleep: 10 * time.Millisecond, Timeout: 50 * time.Millisecond}
	// Inject engine through the exported fields path.
	m.eng = eng
	c := newCand("app1", 1)
	c.tryEndpoint()
	var doneAt sim.Time = -1
	acquireOn(m, c, func(bool) { doneAt = eng.Now() })
	eng.Run(time.Second)
	if doneAt != 50*time.Millisecond {
		t.Fatalf("custom timeout gave up at %v, want 50ms", doneAt)
	}
}

func TestModifiedAcquireFailsFast(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	m := NewModifiedGetEndpoint()
	c := newCand("app1", 1)
	c.tryEndpoint()
	called := false
	acquireOn(m, c, func(ok bool) {
		called = true
		if ok {
			t.Fatal("modified acquire succeeded with an exhausted pool")
		}
	})
	if !called {
		t.Fatal("modified acquire was not synchronous")
	}
	if eng.Pending() != 0 {
		t.Fatal("modified acquire scheduled timers")
	}
}

func TestModifiedAcquireSucceedsWithFreeEndpoint(t *testing.T) {
	m := NewModifiedGetEndpoint()
	c := newCand("app1", 2)
	got := false
	acquireOn(m, c, func(ok bool) { got = ok })
	if !got || c.FreeEndpoints() != 1 {
		t.Fatalf("ok=%v free=%d", got, c.FreeEndpoints())
	}
}

func TestMechanismNamesDistinct(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	orig := NewOriginalGetEndpoint(eng)
	mod := NewModifiedGetEndpoint()
	if orig.Name() == mod.Name() {
		t.Fatal("mechanisms share a name")
	}
}
