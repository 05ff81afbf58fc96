package main

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// perLayer is the catalogue the traced run reports, in BENCHMARK.json
// order. A workload that does not exercise a layer reports its metrics as
// 0: that layer did no work. README.md maps each metric to the end-to-end
// metric it should move.
var perLayer = func() []layerMetric {
	l := []layerMetric{
		{"ingest.handshake_ms", "ms", "lower"},
		{"ingest.fin_ms", "ms", "lower"},
		{"ingest.send_ns_per_record", "ns", "lower"},
		{"ingest.frame_decode_us", "us", "lower"},
		{"ingest.apply_wait_ms.p50", "ms", "lower"},
		{"ingest.apply_wait_ms.p99", "ms", "lower"},
		{"ingest.batch_records_mean", "count", "higher"},
		{"ingest.segment_bytes_per_record", "bytes", "lower"},
		{"ingest.segments_sealed", "count", "lower"},
		{"ingest.segment_records_dropped", "count", "lower"},
		{"checkpoint.save_ms", "ms", "lower"},
		{"checkpoint.saves", "count", "lower"},
		{"checkpoint.bytes", "bytes", "lower"},
		{"trace.wire_decode_ns_per_record", "ns", "lower"},
		{"analysis.feed_ns_per_record", "ns", "lower"},
		{"trace.segment_write_ns_per_record", "ns", "lower"},
		{"analysis.retire_ns_per_session", "ns", "lower"},
		{"ingest.stage_residual_ns_per_record", "ns", "lower"},
		{"ingest.e2e_cpu_ns_per_record", "ns", "lower"},
	}
	for _, c := range fleetClasses {
		l = append(l, layerMetric{"query." + c + "_p50_ms", "ms", "lower"})
	}
	for _, c := range []string{"wide", "narrow", "apps"} {
		l = append(l,
			layerMetric{"cluster.fanout_self_ms." + c, "ms", "lower"},
			layerMetric{"cluster.response_bytes." + c, "bytes", "lower"},
			layerMetric{"ingest.query_self_ms." + c, "ms", "lower"},
			layerMetric{"tsq.engine_self_ms." + c, "ms", "lower"},
			layerMetric{"trace.scan_ms." + c, "ms", "lower"},
			layerMetric{"analysis.window_feed_ms." + c, "ms", "lower"},
			layerMetric{"trace.blocks_scanned." + c, "count", "lower"},
			layerMetric{"trace.blocks_skipped." + c, "count", "higher"},
			layerMetric{"trace.rows_scanned." + c, "count", "lower"},
			layerMetric{"trace.rows_matched." + c, "count", "higher"},
			layerMetric{"trace.pushdown_yield." + c, "ratio", "higher"},
		)
	}
	l = append(l,
		layerMetric{"trace.live_tail_scan_ms", "ms", "lower"},
		layerMetric{"cluster.pull_ms", "ms", "lower"},
		layerMetric{"cluster.snapshot_bytes", "bytes", "lower"},
		layerMetric{"trace.read_parallel_ms", "ms", "lower"},
		layerMetric{"trace.decode_mbps", "MB/s", "higher"},
		layerMetric{"analysis.load_ms", "ms", "lower"},
	)
	for _, cs := range coreStages {
		l = append(l, layerMetric{"core." + cs.name + "_ms", "ms", "lower"})
	}
	l = append(l,
		layerMetric{"report.render_ms", "ms", "lower"},
		layerMetric{"runtime.alloc_bytes_per_op", "bytes", "lower"},
		layerMetric{"runtime.mallocs_per_op", "count", "lower"},
		layerMetric{"runtime.gc_pause_ms", "ms", "lower"},
		layerMetric{"trace_overhead_pct", "%", "lower"},
	)
	return l
}()
