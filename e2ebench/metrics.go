package main

import (
	"fmt"
	"sort"
)

// metricDef declares one reported metric; BENCHMARK.json lists the
// same names and units.
type metricDef struct {
	name, unit string
}

// endToEnd are the tracing-off metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"allocs_per_req", "count"},
	{"bytes_per_req", "B"},
	{"cpu_us_per_req", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports zero.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events_per_req", "count"},
		{"sim.heap_depth", "count"},
		{"sim.schedule_fire_ns", "ns"},
		{"cluster.vlrt_share", "share"},
		{"netmodel.drops_per_kreq", "1/kreq"},
		{"netmodel.retransmits_per_kreq", "1/kreq"},
		{"lb.rejects_per_kreq", "1/kreq"},
		{"runtime.gc_per_kreq", "1/kreq"},
		{"httpcluster.proxy.client_us", "us"},
		{"httpcluster.proxy.accept_wait_us", "us"},
		{"httpcluster.balancer.get_endpoint_us", "us"},
		{"httpcluster.proxy.upstream_us", "us"},
		{"httpcluster.proxy.self_us", "us"},
		{"httpcluster.proxy.other_us", "us"},
		{"httpcluster.proxy.new_conns_per_kreq", "1/kreq"},
		{"httpcluster.app.service_ratio", "ratio"},
		{"httpcluster.db.queries_per_req", "ratio"},
		{"httpcluster.balancer.acquire_ns", "ns"},
		{"httpcluster.balancer.acquire_allocs", "count"},
		{"admission.gate_ns", "ns"},
		{"probe.probes_per_req", "ratio"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.p999_ms", "ms"},
		{"loadgen.busy_share", "share"},
		{"bench.trace_overhead", "ratio"},
		{"bench.fail_share", "share"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{b + ".cpu_share", "share"})
	}
	for _, b := range layerBuckets {
		defs = append(defs, metricDef{b + ".alloc_share", "share"})
	}
	return defs
}()

// fillPerLayer reports zero for every per-layer metric the workload
// left unset.
func (r *report) fillPerLayer() {
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; !ok {
			r.set(d.name, d.unit, 0)
		}
	}
}

// checkDeclared verifies the report carries exactly the declared
// metrics with their declared units.
func (r *report) checkDeclared(defs []metricDef) {
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.name] = d.unit
		got, ok := r.metrics[d.name]
		r.check(ok, "metric %s missing", d.name)
		r.check(!ok || got.Unit == d.unit, "metric %s in %s, declared %s", d.name, got.Unit, d.unit)
	}
	var extra []string
	for name := range r.metrics {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	r.check(len(extra) == 0, "undeclared metrics %s", fmt.Sprint(extra))
}
