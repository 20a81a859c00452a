package workload

import (
	"math"
	"testing"
	"time"

	"millibalance/internal/sim"
)

func TestInteractionTableShape(t *testing.T) {
	if len(Interactions) != 24 {
		t.Fatalf("Interactions = %d entries, want 24 (RUBBoS servlet count)", len(Interactions))
	}
	seen := map[string]bool{}
	writes := 0
	for _, it := range Interactions {
		if it.Name == "" {
			t.Fatal("unnamed interaction")
		}
		if seen[it.Name] {
			t.Fatalf("duplicate interaction %q", it.Name)
		}
		seen[it.Name] = true
		if it.Write {
			writes++
		}
		if it.AppDemand <= 0 {
			t.Fatalf("%s has non-positive app demand", it.Name)
		}
		if it.WebDemand <= 0 {
			t.Fatalf("%s has non-positive web demand", it.Name)
		}
		if it.DBQueries < 0 || (it.DBQueries > 0) != (it.DBDemand > 0) {
			t.Fatalf("%s has inconsistent DB demand: %d queries, %v each", it.Name, it.DBQueries, it.DBDemand)
		}
		if it.RequestBytes <= 0 || it.ResponseBytes <= 0 || it.LogBytes <= 0 {
			t.Fatalf("%s has non-positive message/log sizes", it.Name)
		}
	}
	if writes != 6 {
		t.Fatalf("write interactions = %d, want 6", writes)
	}
}

func TestBrowseOnlyMixHasNoWrites(t *testing.T) {
	m := BrowseOnlyMix()
	if len(m.Interactions) == 0 {
		t.Fatal("browse-only mix is empty")
	}
	for _, it := range m.Interactions {
		if it.Write {
			t.Fatalf("browse-only mix contains write interaction %s", it.Name)
		}
	}
	if len(m.Interactions) != len(m.Weights) {
		t.Fatal("mix weights misaligned")
	}
}

func TestReadWriteMixHasModestWriteShare(t *testing.T) {
	m := ReadWriteMix()
	var total, writes float64
	for i, it := range m.Interactions {
		total += m.Weights[i]
		if it.Write {
			writes += m.Weights[i]
		}
	}
	share := writes / total
	if share < 0.05 || share > 0.20 {
		t.Fatalf("write share = %.3f, want ~10%%", share)
	}
}

func TestMeanDemandsPositive(t *testing.T) {
	web, app, db := BrowseOnlyMix().MeanDemands()
	if web <= 0 || app <= 0 || db <= 0 {
		t.Fatalf("MeanDemands = %v/%v/%v", web, app, db)
	}
	if app < web {
		t.Fatalf("app demand %v below web demand %v; app tier should dominate", app, web)
	}
}

func TestMeanDemandsEmptyMix(t *testing.T) {
	web, app, db := (Mix{}).MeanDemands()
	if web != 0 || app != 0 || db != 0 {
		t.Fatal("empty mix demands not zero")
	}
}

func TestNavigatorRespectsMixMembership(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	m := BrowseOnlyMix()
	nav := NewNavigator(eng, m, 0.7)
	member := map[string]bool{}
	for _, it := range m.Interactions {
		member[it.Name] = true
	}
	for i := 0; i < 5000; i++ {
		it := nav.Next()
		if !member[it.Name] {
			t.Fatalf("navigator left the mix: %s", it.Name)
		}
		if it.Write {
			t.Fatalf("browse-only navigation hit a write: %s", it.Name)
		}
	}
}

func TestNavigatorFollowsSuccessors(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	nav := NewNavigator(eng, ReadWriteMix(), 1.0) // always follow when possible
	follows, steps := 0, 0
	prev := nav.Next()
	for i := 0; i < 5000; i++ {
		cur := nav.Next()
		steps++
		for _, s := range successors[prev.Name] {
			if s == cur.Name {
				follows++
				break
			}
		}
		prev = cur
	}
	if frac := float64(follows) / float64(steps); frac < 0.8 {
		t.Fatalf("successor-follow fraction = %.2f with followProb=1", frac)
	}
}

func TestNavigatorZeroFollowMatchesWeights(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	m := BrowseOnlyMix()
	nav := NewNavigator(eng, m, 0)
	counts := map[string]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[nav.Next().Name]++
	}
	var total float64
	for _, w := range m.Weights {
		total += w
	}
	for i, it := range m.Interactions {
		want := m.Weights[i] / total
		got := float64(counts[it.Name]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("%s frequency %.3f, want %.3f", it.Name, got, want)
		}
	}
}

func TestNavigatorClampsFollowProb(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	nav := NewNavigator(eng, BrowseOnlyMix(), 7)
	if nav.followProb != 1 {
		t.Fatalf("followProb = %v", nav.followProb)
	}
	nav = NewNavigator(eng, BrowseOnlyMix(), -1)
	if nav.followProb != 0 {
		t.Fatalf("followProb = %v", nav.followProb)
	}
}

func TestSuccessorNamesExist(t *testing.T) {
	names := map[string]bool{}
	for _, it := range Interactions {
		names[it.Name] = true
	}
	for from, tos := range successors {
		if !names[from] {
			t.Fatalf("successor map key %q is not an interaction", from)
		}
		for _, to := range tos {
			if !names[to] {
				t.Fatalf("successor %q of %q is not an interaction", to, from)
			}
		}
	}
}

func TestRequestFinishOnce(t *testing.T) {
	called := 0
	r := &Request{done: func(*Request, Outcome) { called++ }}
	r.Finish(Outcome{OK: true})
	if called != 1 || !r.Finished() {
		t.Fatalf("called=%d finished=%v", called, r.Finished())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Finish did not panic")
		}
	}()
	r.Finish(Outcome{})
}

func TestGroupClosedLoop(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	completions := 0
	var submit SubmitFunc = func(req *Request) {
		// Serve instantly with a 1ms response time.
		eng.Schedule(time.Millisecond, func() {
			completions++
			req.Finish(Outcome{OK: true, ResponseTime: time.Millisecond})
		})
	}
	g := NewGroup(eng, 10, ClientConfig{ThinkTime: 100 * time.Millisecond, Mix: BrowseOnlyMix()}, submit)
	g.Start()
	eng.Run(10 * time.Second)
	// 10 clients, ~101ms per cycle, 10s → ~990 requests.
	if g.Issued() < 700 || g.Issued() > 1300 {
		t.Fatalf("Issued = %d, want ≈1000", g.Issued())
	}
	if uint64(completions) > g.Issued() {
		t.Fatalf("completions %d exceed issued %d", completions, g.Issued())
	}
}

func TestGroupClosedLoopWaitsForResponse(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	inFlight, maxInFlight := 0, 0
	var submit SubmitFunc = func(req *Request) {
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		eng.Schedule(50*time.Millisecond, func() {
			inFlight--
			req.Finish(Outcome{OK: true})
		})
	}
	g := NewGroup(eng, 5, ClientConfig{ThinkTime: time.Millisecond, Mix: BrowseOnlyMix()}, submit)
	g.Start()
	eng.Run(5 * time.Second)
	if maxInFlight > 5 {
		t.Fatalf("closed loop violated: %d in flight for 5 clients", maxInFlight)
	}
}

func TestGroupStop(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	var submit SubmitFunc = func(req *Request) {
		eng.Schedule(time.Millisecond, func() { req.Finish(Outcome{OK: true}) })
	}
	g := NewGroup(eng, 3, ClientConfig{ThinkTime: 10 * time.Millisecond, Mix: BrowseOnlyMix()}, submit)
	g.Start()
	eng.Run(time.Second)
	g.Stop()
	issued := g.Issued()
	eng.Run(5 * time.Second)
	if g.Issued() != issued {
		t.Fatalf("requests issued after Stop: %d -> %d", issued, g.Issued())
	}
}

func TestGroupUniqueRequestIDs(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	ids := map[uint64]bool{}
	var submit SubmitFunc = func(req *Request) {
		if ids[req.ID] {
			t.Fatalf("duplicate request ID %d", req.ID)
		}
		ids[req.ID] = true
		eng.Schedule(time.Millisecond, func() { req.Finish(Outcome{OK: true}) })
	}
	g := NewGroup(eng, 4, ClientConfig{ThinkTime: 5 * time.Millisecond, Mix: ReadWriteMix()}, submit)
	g.Start()
	eng.Run(time.Second)
	if len(ids) == 0 {
		t.Fatal("no requests issued")
	}
}

func TestGroupPanicsOnBadArgs(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil submit", func() {
		NewGroup(eng, 1, ClientConfig{Mix: BrowseOnlyMix()}, nil)
	})
	mustPanic("empty mix", func() {
		NewGroup(eng, 1, ClientConfig{}, func(*Request) {})
	})
}

func TestBurstIncreasesThroughput(t *testing.T) {
	run := func(burst *BurstConfig) uint64 {
		eng := sim.NewEngine(3, 4)
		var submit SubmitFunc = func(req *Request) { req.Finish(Outcome{OK: true}) }
		g := NewGroup(eng, 20, ClientConfig{
			ThinkTime: 100 * time.Millisecond,
			Mix:       BrowseOnlyMix(),
			Burst:     burst,
		}, submit)
		g.Start()
		eng.Run(20 * time.Second)
		return g.Issued()
	}
	base := run(nil)
	bursty := run(&BurstConfig{Period: 2 * time.Second, DutyCycle: 0.5, Factor: 4})
	if float64(bursty) < 1.3*float64(base) {
		t.Fatalf("bursty issued %d, base %d; burst had no effect", bursty, base)
	}
}

func TestBurstActiveWindows(t *testing.T) {
	b := &BurstConfig{Period: time.Second, DutyCycle: 0.25, Factor: 2}
	if !b.active(100 * time.Millisecond) {
		t.Fatal("burst inactive inside duty window")
	}
	if b.active(500 * time.Millisecond) {
		t.Fatal("burst active outside duty window")
	}
	if (*BurstConfig)(nil).active(0) {
		t.Fatal("nil burst active")
	}
	if (&BurstConfig{Period: time.Second, DutyCycle: 1, Factor: 1}).active(0) {
		t.Fatal("factor<=1 burst active")
	}
}
