package lb

import (
	"testing"
	"time"

	"millibalance/internal/sim"
)

// The balancer recycles dispatch records through a free list, and the
// Ticket handed to send is a generation-checked handle to one of them.
// These tests pin the safety contract of stale tickets: once a ticket
// is done, it and every copy of it are permanently dead, even after the
// record is reused by a later dispatch.

func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		got := recover()
		if got == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	fn()
}

func newTicketBalancer(endpoints int) (*Balancer, *Candidate) {
	eng := sim.NewEngine(1, 2)
	c := NewCandidate("app1", sim.NewPool(endpoints))
	return New(eng, CurrentLoad{}, NewModifiedGetEndpoint(), []*Candidate{c}, Config{Sweeps: 1}), c
}

// TestTicketDoubleDonePanics: a second Done through the same ticket
// panics and leaves the bookkeeping of the first completion intact.
func TestTicketDoubleDonePanics(t *testing.T) {
	bal, c := newTicketBalancer(2)
	var tk Ticket
	bal.Dispatch(RequestInfo{}, func(_ *Candidate, got Ticket) { tk = got }, func() {})
	tk.Done()
	mustPanicWith(t, "lb: request completion invoked twice", tk.Done)
	if c.InFlight() != 0 || c.Completed() != 1 || c.FreeEndpoints() != 2 {
		t.Fatalf("after double Done: in-flight %d completed %d free %d, want 0/1/2",
			c.InFlight(), c.Completed(), c.FreeEndpoints())
	}
}

// TestStaleTicketPanicsAfterRecycle: a ticket whose record was recycled
// into a later dispatch panics instead of completing the new occupant,
// and the new occupant's own ticket still works.
func TestStaleTicketPanicsAfterRecycle(t *testing.T) {
	bal, c := newTicketBalancer(2)
	var stale, fresh Ticket
	bal.Dispatch(RequestInfo{}, func(_ *Candidate, got Ticket) { stale = got }, func() {})
	stale.Done() // the record returns to the free list
	bal.Dispatch(RequestInfo{}, func(_ *Candidate, got Ticket) { fresh = got }, func() {})
	if fresh.d != stale.d {
		t.Fatal("second dispatch did not reuse the recycled record")
	}
	if fresh == stale {
		t.Fatal("stale and fresh tickets compare equal")
	}
	mustPanicWith(t, "lb: request completion invoked twice", stale.Done)
	if c.InFlight() != 1 {
		t.Fatalf("stale Done changed the new occupant's in-flight count to %d", c.InFlight())
	}
	fresh.Done()
	if c.InFlight() != 0 || c.Completed() != 2 {
		t.Fatalf("in-flight %d completed %d, want 0/2", c.InFlight(), c.Completed())
	}
}

// TestStaleTicketAfterRejectRecycle: a record retired by a rejection is
// reused too, and a ticket from its earlier life stays dead.
func TestStaleTicketAfterRejectRecycle(t *testing.T) {
	bal, c := newTicketBalancer(1)
	var stale, fresh Ticket
	bal.Dispatch(RequestInfo{}, func(_ *Candidate, got Ticket) { stale = got }, func() {})
	stale.Done()
	c.tryEndpoint() // exhaust the pool: the next dispatch is rejected
	rejected := 0
	bal.Dispatch(RequestInfo{}, func(*Candidate, Ticket) { t.Fatal("dispatched past a full pool") },
		func() { rejected++ })
	if rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	c.releaseEndpoint()
	mustPanicWith(t, "lb: request completion invoked twice", stale.Done)
	bal.Dispatch(RequestInfo{}, func(_ *Candidate, got Ticket) { fresh = got }, func() {})
	if fresh.d != stale.d || fresh.gen != stale.gen+2 {
		t.Fatalf("record not reused across the rejection (gen %d after %d)", fresh.gen, stale.gen)
	}
	mustPanicWith(t, "lb: request completion invoked twice", stale.Done)
	fresh.Done()
	if c.InFlight() != 0 || c.Completed() != 2 {
		t.Fatalf("in-flight %d completed %d, want 0/2", c.InFlight(), c.Completed())
	}
}

// TestZeroTicketPanics: the zero Ticket is no completion at all.
func TestZeroTicketPanics(t *testing.T) {
	mustPanicWith(t, "lb: request completion invoked twice", Ticket{}.Done)
}

// TestDispatchFreeListReuse: after a dispatch/complete churn far larger
// than the in-flight population, the balancer holds one record; a
// polling dispatch that spans several sleeps and sweeps retires its
// record too.
func TestDispatchFreeListReuse(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	c := NewCandidate("app1", sim.NewPool(1))
	bal := New(eng, TotalRequest{}, NewOriginalGetEndpoint(eng), []*Candidate{c}, Config{})
	for i := 0; i < 10000; i++ {
		bal.Dispatch(RequestInfo{}, func(_ *Candidate, tk Ticket) { tk.Done() }, func() { t.Fatal("reject") })
	}
	if got := bal.free.Len(); got != 1 {
		t.Fatalf("free list holds %d records after serial churn, want 1", got)
	}
	// Hold the only endpoint on the recycled record: the next dispatch
	// takes a second record, polls through three sweeps and is rejected.
	var held Ticket
	bal.Dispatch(RequestInfo{}, func(_ *Candidate, tk Ticket) { held = tk }, func() {})
	rejected := false
	bal.Dispatch(RequestInfo{}, func(*Candidate, Ticket) { t.Fatal("dispatched past a full pool") },
		func() { rejected = true })
	eng.Run(10 * time.Second)
	if !rejected {
		t.Fatal("polling dispatch never rejected")
	}
	held.Done()
	if got := bal.free.Len(); got != 2 {
		t.Fatalf("free list holds %d records, want 2", got)
	}
}
