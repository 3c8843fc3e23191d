package main

// metric declares one reported figure. The end-to-end metrics (Layer
// false) are measured with tracing off and printed with --trace 0; the
// per-layer metrics come from the traced run and are printed with
// --trace 1. BENCHMARK.json at the repository root lists the same names,
// units and directions; the self-test keeps the two in step. README.md
// says what each measures and which end-to-end metric it should move.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  bool
}

var declared = []metric{
	{"setup_s", "s", "lower", false},
	{"cold_s", "s", "lower", false},
	{"warm_s", "s", "lower", false},
	{"peak_rss_mb", "MB", "lower", false},
	{"fit_r2_min", "1", "higher", false},
	{"fit_r2_mean", "1", "higher", false},
	{"ok_share", "1", "higher", false},

	{"spasm.acquire_s", "s", "lower", true},
	{"spasm.events_per_s", "1/s", "higher", true},
	{"spasm.allocs", "count", "lower", true},
	{"sim.events", "count", "lower", true},
	{"mesh.messages", "count", "lower", true},
	{"mesh.mean_latency_ns", "ns", "lower", true},
	{"mesh.retransmissions", "count", "lower", true},
	{"mp.acquire_s", "s", "lower", true},
	{"trace.replay_s", "s", "lower", true},
	{"trace.events_per_s", "1/s", "higher", true},
	{"core.analyze_s", "s", "lower", true},
	{"core.analyze_self_s", "s", "lower", true},
	{"stats.fit_s", "s", "lower", true},
	{"stats.fit_s_max", "s", "lower", true},
	{"stats.fit_calls", "count", "lower", true},
	{"stats.allocs", "count", "lower", true},
	{"stats.dud_iters", "count", "lower", true},
	{"stats.dud_cap_share", "1", "lower", true},
	{"stats.candidate_r2_min", "1", "higher", true},
	{"coll.analyze_s", "s", "lower", true},
	{"coll.messages", "count", "lower", true},
	{"trace.log_write_s", "s", "lower", true},
	{"trace.log_read_s", "s", "lower", true},
	{"trace.log_bytes", "bytes", "lower", true},
	{"report.render_s", "s", "lower", true},
	{"report.bytes", "bytes", "lower", true},
	{"pipeline.acquire_share", "1", "lower", true},
	{"pipeline.replay_share", "1", "lower", true},
	{"pipeline.analyze_share", "1", "lower", true},
	{"pipeline.cpu_busy_share", "1", "higher", true},
	{"pipeline.trace_overhead_share", "1", "lower", true},
}
