package lb

import (
	"testing"
	"time"

	"millibalance/internal/sim"
)

func TestExtensionPoliciesResolve(t *testing.T) {
	for _, name := range []string{"recent_request", "two_choices", "random", "round_robin"} {
		p, ok := PolicyByName(name)
		if !ok || p.Name() != name {
			t.Fatalf("PolicyByName(%q) = %v, %v", name, p, ok)
		}
	}
	if len(PolicyNames()) != 8 {
		t.Fatalf("PolicyNames = %v", PolicyNames())
	}
}

func TestRecentRequestDecay(t *testing.T) {
	c := newCand("app1", 10)
	p := RecentRequest{}
	for i := 0; i < 8; i++ {
		p.OnDispatch(c, RequestInfo{})
	}
	if c.LBValue() != 8 {
		t.Fatalf("lb = %v", c.LBValue())
	}
	p.Maintain(c)
	if c.LBValue() != 4 {
		t.Fatalf("lb after maintain = %v", c.LBValue())
	}
	p.OnComplete(c, RequestInfo{})
	if c.LBValue() != 4 {
		t.Fatal("completion changed recent_request lb_value")
	}
}

func TestBalancerRunsMaintainLoop(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{newCand("app1", 10), newCand("app2", 10)}
	bal := New(eng, RecentRequest{}, NewModifiedGetEndpoint(), cands,
		Config{MaintainInterval: 100 * time.Millisecond})
	// Dispatch 8 to app1 directly via the policy to set a known value.
	cands[0].lbValue = 8
	eng.Run(250 * time.Millisecond) // two maintain ticks
	if cands[0].LBValue() != 2 {
		t.Fatalf("lb after two ticks = %v, want 2", cands[0].LBValue())
	}
	_ = bal
}

func TestMaintainerGetsDefaultInterval(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{newCand("app1", 10)}
	cands[0].lbValue = 8
	New(eng, RecentRequest{}, NewModifiedGetEndpoint(), cands, Config{})
	eng.Run(time.Second) // default 500ms → two ticks
	if cands[0].LBValue() != 2 {
		t.Fatalf("lb = %v after default maintenance, want 2", cands[0].LBValue())
	}
}

func TestNonMaintainerPolicyHasNoMaintenance(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{newCand("app1", 10)}
	cands[0].lbValue = 8
	New(eng, TotalRequest{}, NewModifiedGetEndpoint(), cands, Config{MaintainInterval: 100 * time.Millisecond})
	eng.Run(time.Second)
	if cands[0].LBValue() != 8 {
		t.Fatalf("total_request lb decayed to %v", cands[0].LBValue())
	}
}

func TestRecentRequestRecoversFromStalledAdvantage(t *testing.T) {
	// After a stall freezes a candidate's counter at the minimum,
	// decay pulls everyone toward zero, so the stalled candidate's
	// misleading advantage shrinks with every tick.
	eng := sim.NewEngine(1, 2)
	stalled := newCand("stalled", 10)
	healthy := newCand("healthy", 10)
	New(eng, RecentRequest{}, NewModifiedGetEndpoint(), []*Candidate{stalled, healthy},
		Config{MaintainInterval: 100 * time.Millisecond})
	stalled.lbValue = 10
	healthy.lbValue = 50 // grew while stalled was frozen
	eng.Run(time.Second)
	if gap := healthy.LBValue() - stalled.LBValue(); gap > 1 {
		t.Fatalf("advantage gap still %v after decay", gap)
	}
}

func TestTwoChoicesPrefersLessLoaded(t *testing.T) {
	eng := sim.NewEngine(9, 9)
	a := newCand("a", 100)
	b := newCand("b", 100)
	a.lbValue = 50 // heavily loaded
	p := TwoChoices{}
	picksB := 0
	for i := 0; i < 200; i++ {
		if p.Choose([]*Candidate{a, b}, eng.Rand()) == b {
			picksB++
		}
	}
	// With two candidates, both are always sampled; b always wins.
	if picksB != 200 {
		t.Fatalf("two_choices picked the loaded candidate %d times", 200-picksB)
	}
}

func TestTwoChoicesSamplesDistinct(t *testing.T) {
	eng := sim.NewEngine(3, 4)
	cands := []*Candidate{newCand("a", 10), newCand("b", 10), newCand("c", 10), newCand("d", 10)}
	cands[0].lbValue = 100
	p := TwoChoices{}
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[p.Choose(cands, eng.Rand()).Name()]++
	}
	// The loaded candidate only wins when sampled against itself —
	// impossible with distinct sampling — or when both samples are it.
	if counts["a"] != 0 {
		t.Fatalf("loaded candidate chosen %d times", counts["a"])
	}
	for _, n := range []string{"b", "c", "d"} {
		if counts[n] == 0 {
			t.Fatalf("candidate %s never chosen: %v", n, counts)
		}
	}
}

func TestTwoChoicesSingleEligible(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a := newCand("a", 10)
	if got := (TwoChoices{}).Choose([]*Candidate{a}, eng.Rand()); got != a {
		t.Fatal("single eligible not returned")
	}
}

func TestRandomPolicyUniform(t *testing.T) {
	eng := sim.NewEngine(5, 6)
	cands := []*Candidate{newCand("a", 10), newCand("b", 10), newCand("c", 10)}
	p := RandomPolicy{}
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[p.Choose(cands, eng.Rand()).Name()]++
	}
	for name, c := range counts {
		frac := float64(c) / n
		if frac < 0.30 || frac > 0.37 {
			t.Fatalf("%s frequency %.3f, want ~1/3", name, frac)
		}
	}
}

func TestChooserPolicyDrivesBalancerSelection(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cands := []*Candidate{newCand("a", 100), newCand("b", 100)}
	bal := New(eng, RandomPolicy{}, NewModifiedGetEndpoint(), cands, Config{})
	dispatched := map[string]int{}
	for i := 0; i < 400; i++ {
		bal.Dispatch(RequestInfo{}, func(c *Candidate, tk Ticket) {
			dispatched[c.Name()]++
			tk.Done()
		}, func() { t.Fatal("rejected") })
	}
	if dispatched["a"] == 0 || dispatched["b"] == 0 {
		t.Fatalf("random selection degenerate: %v", dispatched)
	}
}

func TestTwoChoicesAvoidsStalledUnderLoad(t *testing.T) {
	// Like current_load, two_choices tracks in-flight counts, so a
	// stalled candidate (accumulating in-flight) loses every sampled
	// comparison.
	eng := sim.NewEngine(1, 2)
	stalled := NewCandidate("stalled", sim.NewPool(50))
	healthy := NewCandidate("healthy", sim.NewPool(50))
	bal := New(eng, TwoChoices{}, NewModifiedGetEndpoint(), []*Candidate{stalled, healthy}, Config{})
	dispatched := map[string]int{}
	send := func(c *Candidate, tk Ticket) {
		dispatched[c.Name()]++
		if c.Name() == "healthy" {
			eng.Schedule(time.Millisecond, tk.Done)
		}
	}
	for i := 0; i < 60; i++ {
		eng.Schedule(sim.Time(i)*5*time.Millisecond, func() {
			bal.Dispatch(RequestInfo{}, send, func() {})
		})
	}
	eng.Run(time.Second)
	if dispatched["stalled"] > 10 {
		t.Fatalf("two_choices kept feeding the stalled candidate: %v", dispatched)
	}
}

func TestRoundRobinCursorWrap(t *testing.T) {
	// Regression for the free-running cursor: with the cursor at
	// MaxUint64 and 3 eligible candidates, the old `v % n` advance
	// picked index 0 (2^64-1 mod 3 = 0), wrapped the counter to 0, and
	// picked index 0 again — a repeat every candidate count that does
	// not divide 2^64. The modulo-reduced advance never repeats or
	// skips.
	eligible := []*Candidate{newCand("a", 1), newCand("b", 1), newCand("c", 1)}
	r := &RoundRobin{next: ^uint64(0)}
	var got []string
	for i := 0; i < 6; i++ {
		got = append(got, r.Choose(eligible, nil).Name())
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrap sequence %v, want %v", got, want)
		}
	}
}
