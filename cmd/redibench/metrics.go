package main

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of redi sees, reported by every
// workload. Bound is the share of the baseline median by which a metric
// may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the metrics of single layers, from the traced passes and
// the in-process allocation pass; README.md maps each layer to the
// end-to-end metrics it should move. Times and attributes are sums over
// the pass. Calls and result sizes are left out: the seed fixes them.
var perLayer = []metricDef{
	// serve: each endpoint's own time (mux, JSON, the ingest write-lock
	// wait) and its allocations per request.
	{"serve.query.self_ms", "ms", "lower", 0},
	{"serve.discovery.self_ms", "ms", "lower", 0},
	{"serve.stats.self_ms", "ms", "lower", 0},
	{"serve.audit.self_ms", "ms", "lower", 0},
	{"serve.tailor.self_ms", "ms", "lower", 0},
	{"serve.ingest.self_ms", "ms", "lower", 0},
	{"serve.query.allocs_per_req", "count", "lower", 0},
	{"serve.query.bytes_per_req", "B", "lower", 0},
	{"serve.discovery.allocs_per_req", "count", "lower", 0},
	{"serve.discovery.bytes_per_req", "B", "lower", 0},
	{"serve.stats.allocs_per_req", "count", "lower", 0},
	{"serve.stats.bytes_per_req", "B", "lower", 0},
	{"serve.audit.allocs_per_req", "count", "lower", 0},
	{"serve.audit.bytes_per_req", "B", "lower", 0},
	{"serve.tailor.allocs_per_req", "count", "lower", 0},
	{"serve.tailor.bytes_per_req", "B", "lower", 0},
	{"serve.ingest.allocs_per_req", "count", "lower", 0},
	{"serve.ingest.bytes_per_req", "B", "lower", 0},
	{"admission.wait.self_ms", "ms", "lower", 0},
	{"snapshot.acquire.self_ms", "ms", "lower", 0},
	// net/http, both sides of the loopback connection.
	{"http.self_ms", "ms", "lower", 0},
	// expr and the predicate VM.
	{"query.compile.self_ms", "ms", "lower", 0},
	{"dataset.predicate_count.self_ms", "ms", "lower", 0},
	{"dataset.predicate_count.rows_scanned", "count", "lower", 0},
	{"dataset.predicate_count.bitmap_ops", "count", "lower", 0},
	{"dataset.predicate_select.self_ms", "ms", "lower", 0},
	{"dataset.predicate_select.rows_scanned", "count", "lower", 0},
	// dataset and index maintenance on ingest.
	{"ingest.decode.self_ms", "ms", "lower", 0},
	{"ingest.append.self_ms", "ms", "lower", 0},
	{"ingest.groups_advance.self_ms", "ms", "lower", 0},
	{"ingest.space_advance.self_ms", "ms", "lower", 0},
	{"ingest.lsh_upsert.self_ms", "ms", "lower", 0},
	{"ingest.lsh_upsert.upserts", "count", "lower", 0},
	{"ingest.snapshot_refresh.self_ms", "ms", "lower", 0},
	// coverage and core audits.
	{"coverage.mup_walk.self_ms", "ms", "lower", 0},
	{"coverage.mup_walk.dfs_nodes", "count", "lower", 0},
	{"coverage.mup_walk.bitmap_ands", "count", "lower", 0},
	{"audit.coverage.self_ms", "ms", "lower", 0},
	{"audit.completeness.self_ms", "ms", "lower", 0},
	// discovery.
	{"discovery.lsh_probe.self_ms", "ms", "lower", 0},
	{"discovery.lsh_probe.band_probes", "count", "lower", 0},
	{"discovery.lsh_probe.candidates", "count", "lower", 0},
	{"discovery.lsh_verify.self_ms", "ms", "lower", 0},
	// dt tailoring.
	{"tailor.run.self_ms", "ms", "lower", 0},
	{"tailor.run.draws", "count", "lower", 0},
	// The CLI: input load outside the root span, then its spans.
	{"cli.outside_ms.csv", "ms", "lower", 0},
	{"cli.outside_ms.col", "ms", "lower", 0},
	{"cli.audit.coverage.self_ms", "ms", "lower", 0},
	{"cli.coverage.mup_walk.self_ms", "ms", "lower", 0},
	{"cli.audit.completeness.self_ms", "ms", "lower", 0},
	{"cli.query.self_ms", "ms", "lower", 0},
	{"cli.dataset.predicate_count.self_ms", "ms", "lower", 0},
	{"cli.dataset.predicate_count.rows_scanned", "count", "lower", 0},
	{"cli.dataset.predicate_count.partitions_pruned", "count", "higher", 0},
	{"cli.dataset.predicate_select.self_ms", "ms", "lower", 0},
	{"cli.tailor.self_ms", "ms", "lower", 0},
	{"cli.pipeline.index.self_ms", "ms", "lower", 0},
	{"cli.dataset.groupby.self_ms", "ms", "lower", 0},
	{"cli.pipeline.tailor.self_ms", "ms", "lower", 0},
	// The instrument itself: traced over untraced wall time, minus one.
	{"trace.overhead_frac", "ratio", "lower", 0},
}

func endToEndUnit(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("redibench: no end-to-end metric " + name)
}

func allMetrics() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }
