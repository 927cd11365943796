package main

// metricDef is one reported metric. The lists below are the benchmark's
// public contract: BENCHMARK.json at the repository root names exactly these
// metrics with these units (TestMetricNamesMatchBenchmarkJSON pins it).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the baseline median
}

// better is the metric's direction; per-layer metrics default to "lower"
// (they are costs), except where they say otherwise.
func (m metricDef) better() string {
	if m.Better == "" {
		return "lower"
	}
	return m.Better
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run on every workload. Each has a reading of its own on every
// workload; where the simulated and the live workloads read it differently,
// README.md gives both.
var endToEnd = []metricDef{
	{"host_ns_per_req", "ns", "lower", 0.25},
	{"alloc_bytes_per_req", "B", "lower", 0.1},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

// userMetrics are figures a user sees that every run measures but only the
// traced run reports, from its untraced half, as user.<name>. Some apply to
// a few workloads only and read 0 on the others: time to first token,
// goodput and the share of successful requests on the live stack,
// simulated throughput on the twin. The latency percentiles do not repeat
// well enough to gate on a 2-vCPU host with hypervisor steal: the p99s moved
// by up to 3× between runs of the same code, and live-storm's median, which
// sits between its requests served in one round trip and those retried,
// moved by 1.5× as the host's wake-up latency changed. host_ns_per_req
// gates the live latency through its mean.
var userMetrics = []metricDef{
	{Name: "ttft_ms_p50", Unit: "ms"},
	{Name: "ttft_ms_p99", Unit: "ms"},
	{Name: "e2e_ms_p50", Unit: "ms"},
	{Name: "e2e_ms_p99", Unit: "ms"},
	{Name: "goodput_rps", Unit: "1/s", Better: "higher"},
	{Name: "ok_share", Unit: "share", Better: "higher"},
	{Name: "sim_req_per_s", Unit: "1/s", Better: "higher"},
}

const userPrefix = "user."

// perLayer are the traced run's attribution metrics. Layers are the repo's
// module names; cpu_share charges each CPU-profile sample to the innermost
// frame in a repo package (JSON and malloc work count against their caller,
// GC workers against runtime.gc, the benchmark's own frames against bench).
var perLayer = []metricDef{
	{Name: "sim.events_per_req", Unit: "count"},
	{Name: "sim.ns_per_event", Unit: "ns"},
	{Name: "sim.pending_peak", Unit: "count"},
	{Name: "sim.cpu_share", Unit: "share"},
	{Name: "serving.cpu_share", Unit: "share"},
	{Name: "desmodel.cpu_share", Unit: "share"},
	{Name: "federation.cpu_share", Unit: "share"},
	{Name: "federation.rung_active_share", Unit: "share", Better: "higher"},
	{Name: "federation.rung_capacity_share", Unit: "share"},
	{Name: "federation.rung_firstconf_share", Unit: "share"},
	{Name: "desmodel.arrive_ns_p50", Unit: "ns"},
	{Name: "desmodel.arrive_ns_p99", Unit: "ns"},
	{Name: "desmodel.migrations_per_kreq", Unit: "count"},
	{Name: "desmodel.collect_ms", Unit: "ms"},
	{Name: "cluster.cpu_share", Unit: "share"},
	{Name: "scheduler.cpu_share", Unit: "share"},
	{Name: "scheduler.cold_starts", Unit: "count"},
	{Name: "scheduler.drains", Unit: "count"},
	{Name: "runtime.gc_cpu_share", Unit: "share"},
	{Name: "runtime.mallocs_per_req", Unit: "count"},
	{Name: "runtime.gc_cycles", Unit: "count"},
	{Name: "clock.sleeps_per_req", Unit: "count"},
	{Name: "clock.requested_us_per_req", Unit: "us"},
	{Name: "clock.slept_us_per_req", Unit: "us"},
	{Name: "clock.oversleep_share", Unit: "share"},
	{Name: "gateway.serve_ms_p50", Unit: "ms"},
	{Name: "gateway.serve_ms_p99", Unit: "ms"},
	{Name: "gateway.self_ms_p50", Unit: "ms"},
	{Name: "gateway.cpu_share", Unit: "share"},
	{Name: "gateway.shed_share", Unit: "share"},
	{Name: "auth.cpu_share", Unit: "share"},
	{Name: "fabric.endpoint_ms_p50", Unit: "ms"},
	{Name: "fabric.endpoint_ms_p99", Unit: "ms"},
	{Name: "fabric.queue_wait_vs_p50", Unit: "s"},
	{Name: "fabric.cpu_share", Unit: "share"},
	{Name: "client.roundtrips_per_req", Unit: "count"},
	{Name: "client.cpu_share", Unit: "share"},
	{Name: "federation.failover_per_req", Unit: "count"},
	{Name: "resilience.breaker_trips", Unit: "count"},
	{Name: "resilience.cpu_share", Unit: "share"},
	{Name: "gen.lag_ms_max", Unit: "ms"},
	{Name: "gen.inflight_refused", Unit: "count"},
	{Name: "bench.cpu_share", Unit: "share"},
}

// traceCostPrefix names the per-layer metrics that report what tracing
// costs: for every end-to-end metric m, trace_cost.m is its traced value
// minus its untraced value within the same run.
const traceCostPrefix = "trace_cost."

// tracesCost reports whether an end-to-end metric has a trace_cost twin.
// peak_rss_mb has none: it is the process's high-water mark, which the
// traced pass, running second, can only raise.
func tracesCost(m metricDef) bool { return m.Name != "peak_rss_mb" }

// perLayerAll is perLayer, the user metrics, and the trace_cost metrics:
// every metric a traced run reports.
func perLayerAll() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range userMetrics {
		out = append(out, metricDef{Name: userPrefix + m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, m := range endToEnd {
		if tracesCost(m) {
			out = append(out, metricDef{Name: traceCostPrefix + m.Name, Unit: m.Unit, Better: m.Better})
		}
	}
	return out
}

// cpuLayers are the layers whose CPU share the traced run reports, in the
// order of perLayer; each maps to metric "<layer>.cpu_share" except
// runtime.gc, which reports as runtime.gc_cpu_share.
var cpuLayers = []string{"sim", "serving", "desmodel", "federation", "cluster", "scheduler",
	"gateway", "auth", "fabric", "client", "resilience", "bench", "runtime.gc"}

func cpuShareMetric(layer string) string {
	if layer == "runtime.gc" {
		return "runtime.gc_cpu_share"
	}
	return layer + ".cpu_share"
}
