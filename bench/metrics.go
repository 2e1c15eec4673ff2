package main

import (
	"sort"
	"strings"
)

// metric is one named number the benchmark emits. The tables below are
// the source of truth that BENCHMARK.json restates (bench_test.go holds
// the two equal).
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// moves says which end-to-end metric a per-layer metric should move,
	// and on which workload (the prediction, written before measuring).
	moves string
}

// endToEnd is what a researcher waiting on a scenario sees: how long
// set-up and the run take, how much work that is per second, and what
// the machine pays. All host time.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sim_jobs_per_s", unit: "jobs/s", better: "higher", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
}

// Per-layer metrics fall in four groups: counts from the measured runs,
// spans and CPU shares from the traced run, and layer rows timed from
// outside with fixed op counts.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{name: "engine.events_per_job", unit: "count", better: "lower", moves: "run_s everywhere; exact per seed"},
		{name: "engine.events_per_s", unit: "1/s", better: "higher", moves: "read beside events_per_job, never alone"},
		{name: "engine.ns_per_event", unit: "ns", better: "lower", moves: "run_s on dag-packet, then farm-rr"},
		{name: "runtime.mallocs_per_job", unit: "count", better: "lower", moves: "sim_jobs_per_s, cpu_s on farm-rr and dag-fluid; flat on dag-packet"},
		{name: "runtime.bytes_per_job", unit: "bytes", better: "lower", moves: "cpu_s on farm-rr and dag-fluid"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "cpu_s on dag-fluid and farm-rr"},
		{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "run_s on dag-fluid"},
		{name: "core.heap_bytes_per_server", unit: "bytes", better: "lower", moves: "peak_rss_mb on sleep-farm; flat elsewhere"},
		{name: "core.build_us_per_server", unit: "us", better: "lower", moves: "setup_s on sleep-farm; flat elsewhere"},

		{name: "span.scenario.decode_s", unit: "s", better: "lower", moves: "setup_s"},
		{name: "span.core.build_s", unit: "s", better: "lower", moves: "setup_s (run_s on campaign, which builds per point)"},
		{name: "span.workload.start_s", unit: "s", better: "lower", moves: "run_s; near zero"},
		{name: "span.engine.run_s", unit: "s", better: "lower", moves: "run_s: the event loop, split further by cpu_share"},
		{name: "span.core.collect_s", unit: "s", better: "lower", moves: "run_s on farm-rr and sleep-farm, where it walks every server"},
		{name: "span.invariant.finalize_s", unit: "s", better: "lower", moves: "run_s on campaign; zero elsewhere"},
		{name: "span.runner.map_s", unit: "s", better: "lower", moves: "run_s on campaign; zero elsewhere"},
		{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none: traced run_s over the untraced median, minus one"},
	}
	for _, l := range shareLayers {
		ms = append(ms, metric{name: "cpu_share." + l, unit: "ratio", better: "lower",
			moves: "names the layer a sim_jobs_per_s change came from"})
	}
	ms = append(ms, metric{name: "cpu_share.alloc", unit: "ratio", better: "lower",
		moves: "overlapping: samples with runtime.mallocgc on the stack"})
	for _, r := range layerRows {
		ms = append(ms, r.metric)
	}
	return ms
}

// countMetrics derives the per-workload count rows from the measured
// (untraced) runs' medians and one traced run.
func countMetrics(med, traced record) map[string]float64 {
	jobs := float64(med.Jobs)
	return map[string]float64{
		"engine.events_per_job":      float64(traced.Events) / jobs,
		"engine.events_per_s":        float64(traced.Events) / med.RunS,
		"engine.ns_per_event":        med.RunS * 1e9 / float64(traced.Events),
		"runtime.mallocs_per_job":    float64(med.Mallocs) / jobs,
		"runtime.bytes_per_job":      float64(med.Bytes) / jobs,
		"runtime.gc_cycles":          float64(med.GCCycles),
		"runtime.gc_pause_ms":        med.GCPauseMS,
		"core.heap_bytes_per_server": float64(traced.HeapAfterBuild) / float64(traced.Servers),
		"core.build_us_per_server":   traced.Spans["core.build"] * 1e6 / float64(traced.Servers),
	}
}

// tracedMetrics turns the traced run's spans and CPU shares into their
// metric rows. A span that never ran on this workload reads zero.
func tracedMetrics(traced record, untracedRunS float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range perLayer {
		if name, ok := strings.CutPrefix(m.name, "span."); ok {
			out[m.name] = traced.Spans[strings.TrimSuffix(name, "_s")]
		}
		if layer, ok := strings.CutPrefix(m.name, "cpu_share."); ok {
			out[m.name] = traced.CPUShare[layer]
		}
	}
	out["trace.overhead_frac"] = traced.RunS/untracedRunS - 1
	return out
}

func metricNames(ms []metric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.name
	}
	sort.Strings(names)
	return names
}
