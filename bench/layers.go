package main

import (
	"math"
	"strings"

	"eclipsemr/internal/metrics"
)

// regMetrics turns the registry, scheduler, cache and runtime deltas of a
// measured phase, plus the runner's spans, into the per-layer metrics that
// come from outside the engine without probing it.
func (r *run) regMetrics(p phase) map[string]float64 {
	m := make(map[string]float64)
	b, a := p.before.snap, p.after.snap
	count := func(name string) float64 { return float64(a.Get(name) - b.Get(name)) }
	histSec := func(name string) float64 { return float64(a.Hists[name].Sum-b.Hists[name].Sum) / 1e9 }

	// cluster: the runner's spans. Boot and the bulk of upload belong to
	// set-up, the rest to the phase.
	rec := r.h.rec
	m["cluster.boot_s"] = r.setupRec.seconds(spanBoot)
	m["cluster.upload_s"] = r.setupRec.seconds(spanUpload) + rec.seconds(spanUpload)
	m["cluster.run_s"] = rec.seconds(spanRun)
	m["cluster.collect_s"] = rec.seconds(spanCollect)
	m["cluster.readfile_s"] = rec.seconds(spanReadFile)
	m["cluster.cleanup_s"] = rec.seconds(spanCleanup)

	m["mapreduce.map_tasks"] = count("mr.map.tasks")
	m["mapreduce.reduce_tasks"] = count("mr.reduce.tasks")
	m["mapreduce.map_read_s"] = histSec("mr.map.read_ns")
	m["mapreduce.map_compute_s"] = histSec("mr.map.compute_ns")
	m["mapreduce.shuffle_send_s"] = histSec("mr.shuffle.send_ns")
	m["mapreduce.shuffle_recv_s"] = histSec("mr.shuffle.recv_ns")
	m["mapreduce.reduce_compute_s"] = histSec("mr.reduce.compute_ns")
	m["mapreduce.reduce_write_s"] = histSec("mr.reduce.write_ns")
	m["mapreduce.map_rpc_s"] = histSec("mr.driver.map_rpc_ns")
	m["mapreduce.reduce_rpc_s"] = histSec("mr.driver.reduce_rpc_ns")
	m["mapreduce.driver_job_s"] = histSec("mr.driver.job_ns")
	m["mapreduce.shuffle_bytes"] = count("mr.shuffle.bytes")
	m["mapreduce.shuffle_batches"] = count("mr.shuffle.batches")
	m["mapreduce.spills"] = count("mr.shuffle.spills")
	m["mapreduce.remote_reads"] = count("mr.map.remote_reads")
	m["mapreduce.map_retries"] = count("mr.driver.map_retries")
	m["mapreduce.journal_errors"] = count("mr.driver.journal_errors")

	sb, sa := p.before.sched, p.after.sched
	assigned := float64(sa.Assigned - sb.Assigned)
	m["scheduler.queue_wait_s"] = (sa.TotalWait - sb.TotalWait).Seconds()
	m["scheduler.assigned"] = assigned
	if assigned > 0 {
		m["scheduler.local_ratio"] = float64(sa.LocalAssigns-sb.LocalAssigns) / assigned
	}
	m["scheduler.repartitions"] = float64(sa.Repartitions - sb.Repartitions)
	// The paper's load-balance figure: standard deviation of the tasks
	// each node was assigned during the phase.
	if n := len(sa.PerNode); n > 0 {
		var sum, ss float64
		for id, c := range sa.PerNode {
			sum += float64(c - sb.PerNode[id])
		}
		mean := sum / float64(n)
		for id, c := range sa.PerNode {
			d := float64(c-sb.PerNode[id]) - mean
			ss += d * d
		}
		m["scheduler.load_stddev"] = math.Sqrt(ss / float64(n))
	}

	hits := float64(p.after.cache.Hits - p.before.cache.Hits)
	misses := float64(p.after.cache.Misses - p.before.cache.Misses)
	m["cache.hits"] = hits
	m["cache.misses"] = misses
	if hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses)
	}
	m["cache.evictions"] = float64(p.after.cache.Evictions - p.before.cache.Evictions)

	m["dhtfs.blocks_read"] = count("fs.blocks.read")
	m["dhtfs.blocks_written"] = count("fs.blocks.written")
	m["dhtfs.bytes_written"] = count("fs.bytes.written")
	// Bytes dhtfs wrote per user byte uploaded, over the uploads the
	// runner made: in the phase when it uploads there (fs_mixed),
	// otherwise in set-up.
	uploads, amp := r.setupRec, r.uploadAmp
	if up := rec.uploaded.Load(); up > 0 {
		uploads, amp = rec, count("fs.bytes.written")/float64(up)
	}
	m["dhtfs.write_amp"] = amp
	m["dhtfs.read_block_s"] = histSec("fs.read_block_ns")
	m["dhtfs.write_block_s"] = histSec("fs.write_block_ns")
	m["dhtfs.lookup_s"] = histSec("fs.lookup_ns")
	m["dhtfs.segments_appended"] = count("fs.segments.appended")
	m["dhtfs.segment_bytes"] = count("fs.segments.bytes")
	m["dhtfs.upload_p50_ms"] = float64(uploads.p50(spanUpload)) / 1e6
	m["dhtfs.readfile_p50_ms"] = float64(rec.p50(spanReadFile)) / 1e6

	m["transport.calls"] = count("net.calls")
	m["transport.retries"] = count("net.retries")
	m["transport.rpc_s"] = rpcSeconds(a) - rpcSeconds(b)

	if p.attempted > 0 {
		alloc := p.after.mem.TotalAlloc - p.before.mem.TotalAlloc
		m["runtime.alloc_mb_per_op"] = float64(alloc) / mib / float64(p.attempted)
	}
	m["runtime.gc_cycles"] = float64(p.after.mem.NumGC - p.before.mem.NumGC)
	return m
}

// rpcSeconds sums every per-method RPC latency histogram of the retry
// layer.
func rpcSeconds(s metrics.Snapshot) float64 {
	var ns int64
	for name, h := range s.Hists {
		if strings.HasPrefix(name, "net.rpc.") {
			ns += h.Sum
		}
	}
	return float64(ns) / 1e9
}
