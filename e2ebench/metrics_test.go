package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json, at the repository root, declares the same metrics
// and units this program reports.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(declared), len(defs))
		}
		units := make(map[string]string)
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, d := range declared {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s in %s not reported as declared (program: %q)", kind, d.Name, d.Unit, u)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
}
