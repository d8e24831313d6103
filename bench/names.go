package main

// metricDef is one reported metric: the name and unit are what the runner
// prints, better is the direction BENCHMARK.json records for it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a user of the cluster sees; every workload
// reports all of them, measured with tracing off. BENCHMARK.json carries
// the regression bound of each.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower},
	{"mb_per_s", "MiB/s", higher},
	{"op_p50_s", "s", lower},
	{"op_hi_s", "s", lower},
	{"cpu_s_per_gb", "s/GiB", lower},
	{"peak_rss_mb", "MiB", lower},
}

// engineSpans are the engine's own span names whose self time the traced
// run reports as trace.self.<span>_s.
var engineSpans = []string{
	"driver.map_task", "driver.reduce_task", "task.map", "map.read",
	"map.compute", "shuffle.send", "shuffle.recv", "task.reduce",
	"reduce.compute", "reduce.write", "fs.read_block", "fs.write_block",
	"fs.lookup", "cache.get",
}

// perLayerMetrics are measured from outside the engine, layer = module
// name: runner spans around facade calls, registry deltas over the
// measured phase, and micro-probes of each layer's public functions.
// Every workload reports all of them; one it cannot produce reads 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		// cluster: runner spans around the facade.
		{"cluster.boot_s", "s", lower},
		{"cluster.upload_s", "s", lower},
		{"cluster.run_s", "s", lower},
		{"cluster.collect_s", "s", lower},
		{"cluster.readfile_s", "s", lower},
		{"cluster.cleanup_s", "s", lower},
		{"cluster.close_s", "s", lower},

		// mapreduce: registry deltas, then probes.
		{"mapreduce.map_tasks", "count", lower},
		{"mapreduce.reduce_tasks", "count", lower},
		{"mapreduce.map_read_s", "s", lower},
		{"mapreduce.map_compute_s", "s", lower},
		{"mapreduce.shuffle_send_s", "s", lower},
		{"mapreduce.shuffle_recv_s", "s", lower},
		{"mapreduce.reduce_compute_s", "s", lower},
		{"mapreduce.reduce_write_s", "s", lower},
		{"mapreduce.map_rpc_s", "s", lower},
		{"mapreduce.reduce_rpc_s", "s", lower},
		{"mapreduce.driver_job_s", "s", lower},
		{"mapreduce.shuffle_bytes", "bytes", lower},
		{"mapreduce.shuffle_batches", "count", lower},
		{"mapreduce.spills", "count", lower},
		{"mapreduce.remote_reads", "count", lower},
		{"mapreduce.map_retries", "count", lower},
		{"mapreduce.journal_errors", "count", lower},
		{"mapreduce.encode_ns_per_kv", "ns", lower},
		{"mapreduce.decode_ns_per_kv", "ns", lower},
		{"mapreduce.group_ns_per_kv", "ns", lower},

		{"scheduler.queue_wait_s", "s", lower},
		{"scheduler.assigned", "count", lower},
		{"scheduler.local_ratio", "ratio", higher},
		{"scheduler.load_stddev", "count", lower},
		{"scheduler.repartitions", "count", lower},
		{"scheduler.dispatch_ns_per_task", "ns", lower},

		{"kde.partition_us", "us", lower},

		{"cache.hits", "count", higher},
		{"cache.misses", "count", lower},
		{"cache.hit_ratio", "ratio", higher},
		{"cache.evictions", "count", lower},
		{"cache.get_ns", "ns", lower},
		{"cache.put_ns", "ns", lower},

		{"dhtfs.blocks_read", "count", lower},
		{"dhtfs.blocks_written", "count", lower},
		{"dhtfs.bytes_written", "bytes", lower},
		{"dhtfs.write_amp", "ratio", lower},
		{"dhtfs.read_block_s", "s", lower},
		{"dhtfs.write_block_s", "s", lower},
		{"dhtfs.lookup_s", "s", lower},
		{"dhtfs.segments_appended", "count", lower},
		{"dhtfs.segment_bytes", "bytes", lower},
		{"dhtfs.upload_p50_ms", "ms", lower},
		{"dhtfs.readfile_p50_ms", "ms", lower},
		{"dhtfs.store_put_us", "us", lower},
		{"dhtfs.store_get_us", "us", lower},
		{"dhtfs.split_mb_per_s", "MiB/s", higher},

		{"transport.calls", "count", lower},
		{"transport.retries", "count", lower},
		{"transport.rpc_s", "s", lower},
		{"transport.roundtrip_1k_us", "us", lower},
		{"transport.roundtrip_256k_us", "us", lower},
		{"transport.frame_ns", "ns", lower},

		{"hashing.key_ns", "ns", lower},
		{"hashing.lookup_ns", "ns", lower},

		{"runtime.alloc_mb_per_op", "MiB", lower},
		{"runtime.gc_cycles", "count", lower},

		// trace: the traced half of the run.
		{"trace.overhead_pct", "%", lower},
		{"trace.spans", "count", lower},
		{"trace.dropped", "count", lower},
		{"trace.events_dropped", "count", lower},
	}
	for _, name := range engineSpans {
		defs = append(defs, metricDef{"trace.self." + name + "_s", "s", lower})
	}
	return defs
}()
