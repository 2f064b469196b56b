package main

import (
	"ecgrid/internal/runner"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each workload sees, reported as
// medians over repetitions. BENCHMARK.json fixes their regression bounds.
// Wall time is given in reference-kernel units (refkernel.go): raw seconds
// drift with the host's load far beyond any useful bound.
var endToEnd = []metricDef{
	{"wall_ref", "ref"},   // wall time of the timed body, set-up excluded
	{"setup_s", "s"},      // time until a run is ready to simulate (or serve)
	{"peak_rss_mb", "MB"}, // the body process's peak resident set
}

// Deterministic work counts, summed over a workload's simulations.
var (
	radioCounts = []string{
		"radio.frames_sent", "radio.deliveries", "radio.collisions",
		"radio.retries", "radio.deferred_access", "radio.unicast_failed",
	}
	rxCacheCounts = []string{
		"radio.rxcache_hits", "radio.rxcache_misses",
		"radio.rxcache_rechecks", "radio.rxcache_busy_hits",
	}
	// protoCounters are runner.Results.Protocol keys, reported as proto.<key>.
	protoCounters = []string{
		"hellos", "rreqs", "rreps", "elections", "sleeps", "fwd", "dropped",
		"pages", "gridpages",
	}
)

// Measured per-layer values a body child reports besides CPU: runtime
// allocation deltas, shard stalls, and the service path's latencies.
var childTimings = []metricDef{
	{"runtime.allocs", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"shard.stall_s", "s"},
	{"server.p99_ms", "ms"},
	{"server.hit_ms_p50", "ms"},
	{"server.miss_ms_p50", "ms"},
	{"server.wait_ms_p50", "ms"},
	{"server.sims_per_request", "ratio"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"batch.run_ms_p50", "ms"},
	{"store.get_ms_p50", "ms"},
	{"store.put_ms_p50", "ms"},
	{"store.get_count", "count"},
	{"store.put_count", "count"},
}

// perLayerDefs lists every per-layer metric in report order: raw body times
// and the reference unit, CPU by layer from the traced run, runtime work
// classes, work counts, ratios derived from them, and the measured child
// values.
func perLayerDefs() []metricDef {
	defs := []metricDef{{"wall_s", "s"}, {"cpu_s", "s"}, {"ref_ms", "ms"}}
	for _, l := range allLayers() {
		defs = append(defs, metricDef{l + ".cpu_s", "s"})
	}
	for _, c := range []string{classMaps, classAlloc, classGC} {
		defs = append(defs, metricDef{"runtime." + c + "_cpu_s", "s"})
	}
	defs = append(defs, metricDef{"trace.samples", "count"}, metricDef{"trace.overhead_s", "s"})
	for _, n := range radioCounts {
		defs = append(defs, metricDef{n, "count"})
	}
	defs = append(defs,
		metricDef{"radio.deliveries_per_frame", "ratio"},
		metricDef{"radio.cpu_us_per_frame", "us"})
	for _, n := range rxCacheCounts {
		defs = append(defs, metricDef{n, "count"})
	}
	defs = append(defs, metricDef{"radio.rxcache_hit_ratio", "ratio"})
	for _, k := range protoCounters {
		defs = append(defs, metricDef{"proto." + k, "count"})
	}
	defs = append(defs, metricDef{"ras.cpu_us_per_page", "us"}, metricDef{"shard.windows", "count"})
	return append(defs, childTimings...)
}

// addCounts folds one run's results into the work counts.
func addCounts(m map[string]float64, r *runner.Results) {
	c := r.Radio
	for i, v := range []uint64{c.FramesSent, c.Deliveries, c.Collisions, c.Retries, c.DeferredAccess, c.UnicastFailed} {
		m[radioCounts[i]] += float64(v)
	}
	addRxCache(m, r)
	for _, k := range protoCounters {
		m["proto."+k] += float64(r.Protocol[k])
	}
	if r.Shard != nil {
		m["shard.windows"] += float64(r.Shard.Windows)
	}
}

// addRxCache folds one run's receiver-cache telemetry into the counts.
// The telemetry is runtime-only: results read back from a store lack it.
func addRxCache(m map[string]float64, r *runner.Results) {
	rx := r.RxCache
	for i, v := range []uint64{rx.Hits, rx.Misses, rx.Rechecks, rx.BusyHits} {
		m[rxCacheCounts[i]] += float64(v)
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
