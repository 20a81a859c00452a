package netmodel

import (
	"testing"
	"testing/quick"
	"time"

	"millibalance/internal/sim"
)

func TestListenerAcceptsUpToBacklog(t *testing.T) {
	l := NewListener(2)
	if !l.Offer(func() {}) || !l.Offer(func() {}) {
		t.Fatal("offers within backlog were dropped")
	}
	if l.Offer(func() {}) {
		t.Fatal("offer beyond backlog was admitted")
	}
	if l.Len() != 2 || l.Drops() != 1 || l.Offered() != 3 {
		t.Fatalf("Len=%d Drops=%d Offered=%d", l.Len(), l.Drops(), l.Offered())
	}
}

func TestListenerAcceptFIFO(t *testing.T) {
	l := NewListener(10)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		l.Offer(func() { got = append(got, i) })
	}
	for l.Accept() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("accept order = %v", got)
		}
	}
}

func TestListenerAcceptEmpty(t *testing.T) {
	l := NewListener(1)
	if l.Accept() {
		t.Fatal("Accept on empty returned true")
	}
}

func TestListenerZeroBacklogDropsEverything(t *testing.T) {
	l := NewListener(0)
	if l.Offer(func() {}) {
		t.Fatal("zero-backlog listener admitted a connection")
	}
	if l := NewListener(-3); l.Backlog() != 0 {
		t.Fatalf("negative backlog = %d", l.Backlog())
	}
}

func TestListenerFreesSlotAfterAccept(t *testing.T) {
	l := NewListener(1)
	l.Offer(func() {})
	l.Accept()
	if !l.Offer(func() {}) {
		t.Fatal("slot not freed after accept")
	}
}

// Property: offered == admitted + dropped, and Len never exceeds backlog.
func TestQuickListenerConservation(t *testing.T) {
	f := func(ops []bool, backlogRaw uint8) bool {
		backlog := int(backlogRaw % 16)
		l := NewListener(backlog)
		admitted := uint64(0)
		acceptedRuns := uint64(0)
		for _, offer := range ops {
			if offer {
				if l.Offer(func() { acceptedRuns++ }) {
					admitted++
				}
			} else {
				l.Accept()
			}
			if l.Len() > backlog {
				return false
			}
		}
		if l.Offered() != admitted+l.Drops() {
			return false
		}
		return acceptedRuns+uint64(l.Len()) == admitted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRetransmitterImmediateSuccess(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	calls := 0
	r := NewRetransmitter(eng, nil,
		func(conn int) bool {
			if conn != 7 {
				t.Fatalf("attempt got connection %d, want 7", conn)
			}
			calls++
			return true
		},
		func(int) { t.Fatal("onFail on success") })
	r.Send(7, nil)
	eng.Run(10 * time.Second)
	if calls != 1 || r.Retransmits() != 0 {
		t.Fatalf("calls=%d retransmits=%d", calls, r.Retransmits())
	}
}

func TestRetransmitterRetriesOnSchedule(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	var attemptTimes []sim.Time
	attempts := 0
	r := NewRetransmitter(eng, RetransmitSchedule{time.Second, 2 * time.Second}, func(int) bool {
		attemptTimes = append(attemptTimes, eng.Now())
		attempts++
		return attempts == 3 // succeed on the third attempt
	}, nil)
	r.Send(1, nil)
	eng.Run(10 * time.Second)
	want := []sim.Time{0, time.Second, 3 * time.Second}
	if len(attemptTimes) != len(want) {
		t.Fatalf("attempts at %v", attemptTimes)
	}
	for i := range want {
		if attemptTimes[i] != want[i] {
			t.Fatalf("attempts at %v, want %v", attemptTimes, want)
		}
	}
	if r.Retransmits() != 2 {
		t.Fatalf("Retransmits = %d", r.Retransmits())
	}
}

func TestRetransmitterExhaustionFails(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	attempts := 0
	failed := false
	var failAt sim.Time
	r := NewRetransmitter(eng, RetransmitSchedule{time.Second, time.Second, time.Second},
		func(int) bool { attempts++; return false },
		func(conn int) {
			if conn != 3 {
				t.Fatalf("gave up on connection %d, want 3", conn)
			}
			failed = true
			failAt = eng.Now()
		})
	r.Send(3, nil)
	eng.Run(10 * time.Second)
	if attempts != 4 { // initial + 3 retries
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	if !failed || failAt != 3*time.Second {
		t.Fatalf("failed=%v at %v, want at 3s", failed, failAt)
	}
	if r.Failures() != 1 {
		t.Fatalf("Failures = %d", r.Failures())
	}
}

func TestRetransmitterNilOnFail(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	r := NewRetransmitter(eng, RetransmitSchedule{time.Millisecond}, func(int) bool { return false }, nil)
	r.Send(1, nil)
	eng.Run(time.Second) // must not panic
	if r.Failures() != 1 {
		t.Fatalf("Failures = %d", r.Failures())
	}
}

func TestRetransmitterEmptySchedule(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	failed := false
	r := NewRetransmitter(eng, RetransmitSchedule{}, func(int) bool { return false }, func(int) { failed = true })
	r.Send(1, nil)
	eng.Run(time.Second)
	if !failed {
		t.Fatal("empty schedule did not fail immediately")
	}
}

// TestRetransmitterInterleavedRetries: connections dropped at the same
// time keep their own retry state, and retired retry records are
// reused rather than reallocated.
func TestRetransmitterInterleavedRetries(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	admitAt := map[int]sim.Time{1: time.Second, 2: 3 * time.Second}
	admitted := map[int]sim.Time{}
	r := NewRetransmitter(eng, RetransmitSchedule{time.Second, 2 * time.Second},
		func(conn int) bool {
			if eng.Now() < admitAt[conn] {
				return false
			}
			admitted[conn] = eng.Now()
			return true
		},
		func(conn int) { t.Fatalf("connection %d gave up", conn) })
	r.Send(1, nil)
	r.Send(2, nil)
	eng.Run(10 * time.Second)
	if admitted[1] != time.Second || admitted[2] != 3*time.Second {
		t.Fatalf("admitted at %v, want 1 at 1s and 2 at 3s", admitted)
	}
	if r.free.Len() != 2 {
		t.Fatalf("free list holds %d retry records, want 2", r.free.Len())
	}
	admitAt[3] = 11 * time.Second
	r.Send(3, nil)
	eng.Run(20 * time.Second)
	if admitted[3] != 11*time.Second || r.free.Len() != 2 {
		t.Fatalf("connection 3 admitted at %v with %d free records, want 11s and 2",
			admitted[3], r.free.Len())
	}
}

func TestDefaultRetransmitScheduleShape(t *testing.T) {
	s := DefaultRetransmitSchedule()
	if len(s) != 3 {
		t.Fatalf("default schedule length = %d", len(s))
	}
	for _, d := range s {
		if d != time.Second {
			t.Fatalf("default schedule = %v", s)
		}
	}
}

func TestLinkDeliversAfterLatency(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	link := NewLink(eng, 200*time.Microsecond)
	var at sim.Time = -1
	link.Deliver(func() { at = eng.Now() })
	eng.Run(time.Second)
	if at != 200*time.Microsecond {
		t.Fatalf("delivered at %v", at)
	}
}

func TestLinkZeroLatencySynchronous(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	link := NewLink(eng, 0)
	fired := false
	link.Deliver(func() { fired = true })
	if !fired {
		t.Fatal("zero-latency delivery was not synchronous")
	}
}

func TestLinkNegativeLatencyClamped(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	if l := NewLink(eng, -time.Second); l.Latency() != 0 {
		t.Fatalf("Latency = %v", l.Latency())
	}
}
