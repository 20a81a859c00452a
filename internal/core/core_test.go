package core

import (
	"strings"
	"testing"
	"time"

	"millibalance/internal/lb"
	"millibalance/internal/sim"
	"millibalance/internal/stats"
)

func specs(n int) []BackendSpec {
	out := make([]BackendSpec, n)
	for i := range out {
		out[i] = BackendSpec{Name: "app" + string(rune('1'+i)), Endpoints: 5}
	}
	return out
}

func TestNewBalancerAllCombos(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	for _, policy := range lb.PolicyNames() {
		for _, mech := range lb.MechanismNames() {
			b, err := NewBalancer(eng, policy, mech, specs(4), lb.Config{})
			if err != nil {
				t.Fatalf("%s/%s: %v", policy, mech, err)
			}
			if b.Policy().Name() != policy || b.Mechanism().Name() != mech {
				t.Fatalf("wrong wiring: %s/%s", b.Policy().Name(), b.Mechanism().Name())
			}
			if len(b.Candidates()) != 4 {
				t.Fatalf("candidates = %d", len(b.Candidates()))
			}
		}
	}
}

func TestNewBalancerAliases(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	b, err := NewBalancer(eng, "current_load", "modified", specs(2), lb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Mechanism().Name() != "modified_get_endpoint" {
		t.Fatalf("alias resolved to %s", b.Mechanism().Name())
	}
}

func TestNewBalancerErrors(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"nil engine", func() error {
			_, err := NewBalancer(nil, "current_load", "modified", specs(1), lb.Config{})
			return err
		}},
		{"bad policy", func() error {
			_, err := NewBalancer(eng, "nope", "modified", specs(1), lb.Config{})
			return err
		}},
		{"bad mechanism", func() error {
			_, err := NewBalancer(eng, "current_load", "nope", specs(1), lb.Config{})
			return err
		}},
		{"no backends", func() error {
			_, err := NewBalancer(eng, "current_load", "modified", nil, lb.Config{})
			return err
		}},
		{"empty name", func() error {
			_, err := NewBalancer(eng, "current_load", "modified", []BackendSpec{{}}, lb.Config{})
			return err
		}},
		{"duplicate name", func() error {
			_, err := NewBalancer(eng, "current_load", "modified",
				[]BackendSpec{{Name: "a"}, {Name: "a"}}, lb.Config{})
			return err
		}},
	}
	for _, tc := range cases {
		if tc.fn() == nil {
			t.Fatalf("%s: no error", tc.name)
		}
	}
}

func TestDefaultEndpointPool(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	b, err := NewBalancer(eng, "current_load", "modified", []BackendSpec{{Name: "a"}}, lb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if free := b.Candidates()[0].FreeEndpoints(); free != 25 {
		t.Fatalf("default endpoint pool = %d, want 25", free)
	}
}

func TestRecommendedAndClassic(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	rec, err := NewRecommended(eng, specs(2))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy().Name() != "current_load" || rec.Mechanism().Name() != "modified_get_endpoint" {
		t.Fatalf("recommended = %s/%s", rec.Policy().Name(), rec.Mechanism().Name())
	}
	classic, err := NewClassic(eng, specs(2))
	if err != nil {
		t.Fatal(err)
	}
	if classic.Policy().Name() != "total_request" || classic.Mechanism().Name() != "original_get_endpoint" {
		t.Fatalf("classic = %s/%s", classic.Policy().Name(), classic.Mechanism().Name())
	}
}

func TestRecommendedBalancerDispatches(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	b, err := NewRecommended(eng, specs(2))
	if err != nil {
		t.Fatal(err)
	}
	dispatched := 0
	b.Dispatch(lb.RequestInfo{}, func(_ *lb.Candidate, tk lb.Ticket) {
		dispatched++
		tk.Done()
	}, func() { t.Fatal("rejected") })
	if dispatched != 1 {
		t.Fatalf("dispatched = %d", dispatched)
	}
}

func TestDiagnose(t *testing.T) {
	mk := func(vals []float64) *stats.Series {
		s := stats.NewSeries(50 * time.Millisecond)
		for i, v := range vals {
			s.Add(time.Duration(i)*50*time.Millisecond, v)
		}
		return s
	}
	util := make([]float64, 40)
	queue := make([]float64, 40)
	for i := range util {
		util[i], queue[i] = 30, 3
	}
	util[10], util[11] = 100, 100
	queue[10], queue[11] = 300, 400
	vlrt := stats.NewSeries(50 * time.Millisecond)
	vlrt.Incr(520 * time.Millisecond)

	diags := Diagnose([]ServerSeries{
		{Name: "tomcat1", Util: mk(util), Queue: mk(queue)},
		{Name: "tomcat2", Util: mk(make([]float64, 40)), Queue: mk(make([]float64, 40))},
	}, vlrt, DiagnoseConfig{})

	if len(diags) != 2 {
		t.Fatalf("diagnoses = %d", len(diags))
	}
	if len(diags[0].Report.Saturations) != 1 {
		t.Fatalf("tomcat1 saturations = %+v", diags[0].Report.Saturations)
	}
	if diags[0].Report.VLRTAttribution != 1 {
		t.Fatalf("tomcat1 attribution = %v", diags[0].Report.VLRTAttribution)
	}
	if len(diags[1].Report.Saturations) != 0 {
		t.Fatalf("tomcat2 saturations = %+v", diags[1].Report.Saturations)
	}
}

func TestDiagnoseConfigDefaults(t *testing.T) {
	cfg := DiagnoseConfig{}.withDefaults()
	if cfg.SaturationPct != 95 || cfg.MinDuration != 50*time.Millisecond ||
		cfg.MaxDuration != 2*time.Second || cfg.Tolerance != 2500*time.Millisecond {
		t.Fatalf("defaults = %+v", cfg)
	}
	custom := DiagnoseConfig{SaturationPct: 80}.withDefaults()
	if custom.SaturationPct != 80 {
		t.Fatal("custom threshold overridden")
	}
}

func TestBackendNamesInErrors(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	_, err := NewBalancer(eng, "bogus", "modified", specs(1), lb.Config{})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error %v does not name the bad policy", err)
	}
}
