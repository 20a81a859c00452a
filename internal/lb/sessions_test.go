package lb

import (
	"testing"
	"time"

	"millibalance/internal/sim"
)

func TestWeightDefaultsToOne(t *testing.T) {
	c := newCand("a", 5)
	if c.Weight() != 1 {
		t.Fatalf("Weight = %v", c.Weight())
	}
	c.SetWeight(-3)
	if c.Weight() != 1 {
		t.Fatalf("negative weight = %v", c.Weight())
	}
	c.SetWeight(2)
	if c.Weight() != 2 {
		t.Fatalf("Weight = %v", c.Weight())
	}
}

func TestWeightedTotalRequestDistribution(t *testing.T) {
	// A weight-3 candidate should receive three times the traffic of a
	// weight-1 candidate under total_request.
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 100, "heavy", "light")
	h.bal.Candidates()[0].SetWeight(3)
	for i := 0; i < 400; i++ {
		h.submit(RequestInfo{})
		h.completeOne("heavy")
		h.completeOne("light")
	}
	heavy, light := h.dispatched["heavy"], h.dispatched["light"]
	ratio := float64(heavy) / float64(light)
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("heavy/light = %d/%d (ratio %.2f), want ~3", heavy, light, ratio)
	}
}

func TestWeightedCurrentLoad(t *testing.T) {
	h := newHarness(t, CurrentLoad{}, NewModifiedGetEndpoint(), 100, "heavy", "light")
	h.bal.Candidates()[0].SetWeight(2)
	// Keep everything in flight: the weighted candidate absorbs twice
	// the in-flight before its normalized lb_value matches.
	for i := 0; i < 30; i++ {
		h.submit(RequestInfo{})
	}
	heavy, light := h.dispatched["heavy"], h.dispatched["light"]
	ratio := float64(heavy) / float64(light)
	if ratio < 1.7 || ratio > 2.4 {
		t.Fatalf("heavy/light = %d/%d (ratio %.2f), want ~2", heavy, light, ratio)
	}
	// lb_value returns to zero after all completions despite scaling.
	for i := 0; i < heavy; i++ {
		h.completeOne("heavy")
	}
	if got := h.bal.Candidates()[0].LBValue(); got > 1e-9 {
		t.Fatalf("weighted current_load lb residue %v", got)
	}
}

func TestWeightInSnapshot(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 5, "a")
	h.bal.Candidates()[0].SetWeight(4)
	if got := h.bal.Snapshot()[0].Weight; got != 4 {
		t.Fatalf("snapshot weight = %v", got)
	}
}

func newStickyHarness(t *testing.T, endpoints int, names ...string) *harness {
	t.Helper()
	eng := sim.NewEngine(1, 2)
	var cands []*Candidate
	for _, n := range names {
		cands = append(cands, NewCandidate(n, sim.NewPool(endpoints)))
	}
	h := &harness{
		eng:        eng,
		pending:    map[string][]Ticket{},
		dispatched: map[string]int{},
	}
	h.bal = New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands,
		Config{Sweeps: 1, StickySessions: true, ErrorAfter: time.Nanosecond})
	return h
}

func (h *harness) submitSession(session uint64) {
	h.bal.Dispatch(RequestInfo{SessionID: session},
		func(c *Candidate, tk Ticket) {
			h.dispatched[c.Name()]++
			h.pending[c.Name()] = append(h.pending[c.Name()], tk)
		},
		func() { h.rejected++ })
}

func TestStickySessionPinsToFirstBackend(t *testing.T) {
	h := newStickyHarness(t, 50, "app1", "app2")
	// Session 1 lands on app1 (tie-break); all its later requests must
	// stay there even when app2's lb_value is far lower.
	h.submitSession(1)
	h.completeOne("app1")
	h.bal.Candidates()[0].lbValue = 100
	for i := 0; i < 10; i++ {
		h.submitSession(1)
		h.completeOne("app1")
	}
	if h.dispatched["app1"] != 11 || h.dispatched["app2"] != 0 {
		t.Fatalf("dist = %v, want everything pinned to app1", h.dispatched)
	}
	if h.bal.Sessions() != 1 {
		t.Fatalf("Sessions = %d", h.bal.Sessions())
	}
}

func TestStickySessionsSpreadAcrossBackends(t *testing.T) {
	h := newStickyHarness(t, 50, "app1", "app2")
	for s := uint64(1); s <= 20; s++ {
		h.submitSession(s)
		h.completeOne("app1")
		h.completeOne("app2")
	}
	if h.dispatched["app1"] == 0 || h.dispatched["app2"] == 0 {
		t.Fatalf("sticky first-bindings did not spread: %v", h.dispatched)
	}
	if h.bal.Sessions() != 20 {
		t.Fatalf("Sessions = %d", h.bal.Sessions())
	}
}

func TestStickySessionFallsBackWhenPinnedPoolExhausted(t *testing.T) {
	h := newStickyHarness(t, 1, "app1", "app2")
	h.submitSession(1) // binds to app1, holds its only endpoint
	// Next request of the same session: pinned candidate's pool is
	// exhausted → acquire fails → falls back to app2 and REBINDS.
	h.submitSession(1)
	if h.dispatched["app2"] != 1 {
		t.Fatalf("dist = %v, want fallback to app2", h.dispatched)
	}
	// Rebind means subsequent requests go to app2.
	h.completeOne("app2")
	h.submitSession(1)
	if h.dispatched["app2"] != 2 {
		t.Fatalf("dist = %v, want rebind to app2", h.dispatched)
	}
}

func TestStickySessionIgnoresErrorBackend(t *testing.T) {
	h := newStickyHarness(t, 1, "app1", "app2")
	h.submitSession(1) // binds app1, holds endpoint
	// Drive app1 to Error with persistent failures from another
	// session.
	for i := 0; i < 4; i++ {
		h.eng.Run(h.eng.Now() + 150*time.Millisecond)
		h.submitSession(2)
		h.completeOne("app2")
	}
	if h.bal.Candidates()[0].State() != StateError {
		t.Skipf("app1 = %v; error not reached in this sequence", h.bal.Candidates()[0].State())
	}
	h.completeOne("app2")
	h.submitSession(1) // pinned to app1 but it is Error → must go app2
	if h.dispatched["app1"] != 1 {
		t.Fatalf("dispatched to error backend: %v", h.dispatched)
	}
}

func TestNoStickyWithoutConfig(t *testing.T) {
	h := newHarness(t, TotalRequest{}, NewModifiedGetEndpoint(), 50, "app1", "app2")
	for i := 0; i < 10; i++ {
		h.bal.Dispatch(RequestInfo{SessionID: 1}, func(c *Candidate, tk Ticket) {
			h.dispatched[c.Name()]++
			tk.Done()
		}, func() {})
	}
	if h.dispatched["app1"] == 10 || h.dispatched["app2"] == 10 {
		t.Fatalf("sessions pinned without StickySessions: %v", h.dispatched)
	}
	if h.bal.Sessions() != 0 {
		t.Fatalf("Sessions = %d without sticky config", h.bal.Sessions())
	}
}

func TestZeroSessionNeverPins(t *testing.T) {
	h := newStickyHarness(t, 50, "app1", "app2")
	for i := 0; i < 10; i++ {
		h.submitSession(0)
		h.completeOne("app1")
		h.completeOne("app2")
	}
	if h.bal.Sessions() != 0 {
		t.Fatalf("session 0 created bindings: %d", h.bal.Sessions())
	}
	if h.dispatched["app1"] == 0 || h.dispatched["app2"] == 0 {
		t.Fatalf("dist = %v", h.dispatched)
	}
}
