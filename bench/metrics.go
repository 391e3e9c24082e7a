package main

// metricDef is one row of BENCHMARK.json, kept here so the program prints
// exactly the names and units the file declares (TestBenchmarkJSON compares).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd lists what a user of the system sees. Bounds are fixed from the
// measured same-code spread (README.md, "Bounds"): a metric may worsen by
// that share of the parent's median before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"simdays_per_s", "1/s", higher, 0.25},
	{"allocs_per_simday", "count", lower, 0.01},
	{"alloc_mb_per_simday", "MB", lower, 0.01},
	{"heap_bytes_per_service", "B", lower, 0.2},
	{"coverage_pct", "%", higher, 0.001},
	{"accuracy_pct", "%", higher, 0.001},
	{"serve_rps", "1/s", higher, 0.25},
	{"lookup_p50_us", "us", lower, 0.25},
	{"search_p50_us", "us", lower, 0.25},
	{"recover_ms", "ms", lower, 0.25},
	{"store_bytes_per_service", "B", lower, 0.001},
}

// perLayer lists the single-layer metrics of a traced run, grouped by the
// layer whose public API produced them.
var perLayer = []metricDef{
	{Name: "core.tick_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.tick_p95_ms", Unit: "ms", Better: lower},
	{Name: "core.daily_tick_extra_ms", Unit: "ms", Better: lower},
	{Name: "core.interrogations_per_simday", Unit: "count", Better: lower},
	{Name: "core.pseudo_flagged_hosts", Unit: "count", Better: lower},
	{Name: "core.unattributed_pct", Unit: "%", Better: lower},

	{Name: "simnet.probe_ns", Unit: "ns", Better: lower},
	{Name: "simnet.probes_per_simday", Unit: "count", Better: lower},
	{Name: "discovery.tick_ms", Unit: "ms", Better: lower},
	{Name: "discovery.candidates_per_kprobe", Unit: "count", Better: higher},

	{Name: "predict.recommend_ms", Unit: "ms", Better: lower},
	{Name: "predict.allocs_per_call", Unit: "count", Better: lower},
	{Name: "predict.probes_per_simday", Unit: "count", Better: lower},
	{Name: "predict.hit_pct", Unit: "%", Better: higher},

	{Name: "interro.interrogate_us", Unit: "us", Better: lower},
	{Name: "interro.allocs_per_op", Unit: "count", Better: lower},
	{Name: "interro.bytes_per_op", Unit: "B", Better: lower},
	{Name: "interro.success_pct", Unit: "%", Better: higher},

	{Name: "cqrs.apply_change_us", Unit: "us", Better: lower},
	{Name: "cqrs.apply_nochange_us", Unit: "us", Better: lower},
	{Name: "cqrs.drain_us_per_event", Unit: "us", Better: lower},
	{Name: "cqrs.nochange_pct", Unit: "%", Better: higher},
	{Name: "journal.events_per_simday", Unit: "count", Better: lower},
	{Name: "journal.bytes_per_event", Unit: "B", Better: lower},
	{Name: "journal.replay_us", Unit: "us", Better: lower},

	{Name: "search.upsert_us", Unit: "us", Better: lower},
	{Name: "search.query_cold_us", Unit: "us", Better: lower},
	{Name: "search.query_warm_us", Unit: "us", Better: lower},
	{Name: "search.cache_hit_pct", Unit: "%", Better: higher},
	{Name: "search.postings_entries", Unit: "count", Better: lower},

	{Name: "lookup.host_us", Unit: "us", Better: lower},
	{Name: "serve.overhead_us", Unit: "us", Better: lower},
	{Name: "serve.export_page_p50_us", Unit: "us", Better: lower},
	{Name: "serve.lookup_p99_us", Unit: "us", Better: lower},
	{Name: "serve.search_p99_us", Unit: "us", Better: lower},
	{Name: "serve.shed_count", Unit: "count", Better: lower},
	{Name: "serve.ratelimited_count", Unit: "count", Better: lower},

	{Name: "core.save_full_ms", Unit: "ms", Better: lower},
	{Name: "core.save_incr_ms", Unit: "ms", Better: lower},
	{Name: "core.checkpoint_ms", Unit: "ms", Better: lower},
	{Name: "durable.save_full_ms", Unit: "ms", Better: lower},
	{Name: "durable.load_ms", Unit: "ms", Better: lower},
	{Name: "core.resume_ms", Unit: "ms", Better: lower},
	{Name: "durable.bytes_written_incr", Unit: "B", Better: lower},
	{Name: "durable.reused_partitions_pct", Unit: "%", Better: higher},
	{Name: "durable.segments", Unit: "count", Better: lower},
	{Name: "snapshot.resident_days", Unit: "count", Better: lower},

	{Name: "runtime.gc_cycles_per_simday", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms_per_simday", Unit: "ms", Better: lower},
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: lower},
	{Name: "runtime.heap_mb", Unit: "MB", Better: lower},

	{Name: "bench.ref_ms", Unit: "ms", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},

	{Name: "raw.setup_s", Unit: "s", Better: lower},
	{Name: "raw.simdays_per_s", Unit: "1/s", Better: higher},
	{Name: "raw.serve_rps", Unit: "1/s", Better: higher},
	{Name: "raw.lookup_p50_us", Unit: "us", Better: lower},
	{Name: "raw.search_p50_us", Unit: "us", Better: lower},
	{Name: "raw.recover_ms", Unit: "ms", Better: lower},
}
