package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"eclipsemr/internal/cache"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/kde"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/transport"
)

// The probes time each layer's public functions directly: one goroutine,
// a fixed number of iterations, inputs taken from the workload. They say
// what one call of a layer costs on this workload's data, where the
// registry deltas say how much of it the workload did.

const (
	probeTokens     = 20000 // KV pairs for the mapreduce and hashing probes
	probeBlocks     = 32    // blocks for the cache and store probes
	probeRounds     = 5     // repeats of each batch probe; the fastest is kept
	probeRoundTrips = 200
)

// fastest runs fn rounds times and returns the shortest run: the cost of
// the code without whatever else the machine was doing.
func fastest(rounds int, fn func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

func per(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// probeMetrics runs every micro-probe on the workload's inputs.
func (r *run) probeMetrics(ctx context.Context) (map[string]float64, error) {
	m := make(map[string]float64)
	in := r.w.inputs()[0]
	shape := r.w.shape()
	block := in.data[:min(len(in.data), shape.blockSize)]

	// mapreduce and hashing: the pairs a map task over the first block
	// would emit (one per whitespace-separated token).
	var kvs []mapreduce.KV
	for _, tok := range bytes.Fields(block) {
		if len(kvs) == probeTokens {
			break
		}
		kvs = append(kvs, mapreduce.KV{Key: string(tok), Value: []byte("1")})
	}
	var encoded []byte
	m["mapreduce.encode_ns_per_kv"] = per(fastest(probeRounds, func() {
		encoded = encoded[:0]
		for _, kv := range kvs {
			encoded = mapreduce.AppendKV(encoded, kv)
		}
	}), len(kvs), time.Nanosecond)
	var decodeErr error
	m["mapreduce.decode_ns_per_kv"] = per(fastest(probeRounds, func() {
		if _, err := mapreduce.DecodeKVs(encoded); err != nil {
			decodeErr = err
		}
	}), len(kvs), time.Nanosecond)
	if decodeErr != nil {
		return nil, fmt.Errorf("decode probe: %w", decodeErr)
	}
	m["mapreduce.group_ns_per_kv"] = per(fastest(probeRounds, func() {
		mapreduce.GroupByKey(kvs)
	}), len(kvs), time.Nanosecond)

	keys := make([]hashing.Key, len(kvs))
	m["hashing.key_ns"] = per(fastest(probeRounds, func() {
		for i, kv := range kvs {
			keys[i] = hashing.KeyOfString(kv.Key)
		}
	}), len(kvs), time.Nanosecond)
	table := r.h.c.Scheduler().RangeTable()
	m["hashing.lookup_ns"] = per(fastest(probeRounds, func() {
		for _, k := range keys {
			table.Lookup(k)
		}
	}), len(keys), time.Nanosecond)

	// scheduler and kde: the block keys the workload's operations present.
	access := r.w.accessKeys()
	d, err := probeDispatch(access)
	if err != nil {
		return nil, err
	}
	m["scheduler.dispatch_ns_per_task"] = per(d, len(access), time.Nanosecond)
	est, err := kde.New(kde.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for _, k := range access {
		est.Add(k)
	}
	var partErr error
	m["kde.partition_us"] = per(fastest(probeRounds, func() {
		if _, err := est.Partition(clusterNodes); err != nil {
			partErr = err
		}
	}), 1, time.Microsecond)
	if partErr != nil {
		return nil, fmt.Errorf("kde probe: %w", partErr)
	}

	// cache: block-sized values in an iCache that holds all of them.
	blockKeysN := make([]hashing.Key, probeBlocks)
	for i := range blockKeysN {
		blockKeysN[i] = hashing.BlockKey("probe", i)
	}
	nc := cache.New(int64(probeBlocks*len(block))*2, 0)
	m["cache.put_ns"] = per(fastest(probeRounds, func() {
		for _, k := range blockKeysN {
			nc.PutBlock(k, block)
		}
	}), probeBlocks, time.Nanosecond)
	m["cache.get_ns"] = per(fastest(probeRounds, func() {
		for _, k := range blockKeysN {
			nc.GetBlock(k)
		}
	}), probeBlocks, time.Nanosecond)

	// dhtfs: the store backend the workload runs on, and the splitter.
	store := dhtfs.NewStore()
	if shape.disk {
		dir, err := os.MkdirTemp(r.cfg.outDir, "probe-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if store, err = dhtfs.NewStoreAt(dir); err != nil {
			return nil, err
		}
	}
	var storeErr error
	m["dhtfs.store_put_us"] = per(fastest(probeRounds, func() {
		for _, k := range blockKeysN {
			if err := store.PutBlock(k, block); err != nil {
				storeErr = err
			}
		}
	}), probeBlocks, time.Microsecond)
	m["dhtfs.store_get_us"] = per(fastest(probeRounds, func() {
		for _, k := range blockKeysN {
			if _, err := store.GetBlock(k); err != nil {
				storeErr = err
			}
		}
	}), probeBlocks, time.Microsecond)
	if storeErr != nil {
		return nil, fmt.Errorf("store probe: %w", storeErr)
	}
	var splitErr error
	split := fastest(probeRounds, func() {
		if _, _, err := dhtfs.SplitRecords(in.name, in.data, shape.blockSize, '\n'); err != nil {
			splitErr = err
		}
	})
	if splitErr != nil {
		return nil, fmt.Errorf("split probe: %w", splitErr)
	}
	m["dhtfs.split_mb_per_s"] = float64(len(in.data)) / mib / split.Seconds()

	// transport: echo round trips over loopback TCP, and the raw frame codec.
	if err := probeTransport(ctx, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeDispatch times LAF Submit + Dispatch + Release over the keys on a
// scheduler shaped like the cluster's, returning the fastest round.
func probeDispatch(keys []hashing.Key) (time.Duration, error) {
	ring := hashing.NewChordRing()
	ids := make([]hashing.NodeID, clusterNodes)
	for i := range ids {
		ids[i] = hashing.NodeID(fmt.Sprintf("worker-%02d", i))
		if err := ring.AddNode(ids[i]); err != nil {
			return 0, err
		}
	}
	tasks := make([]scheduler.Task, len(keys))
	for i, k := range keys {
		tasks[i] = scheduler.Task{Job: "probe", ID: fmt.Sprint(i), HashKey: k}
	}
	var schedErr error
	d := fastest(probeRounds, func() {
		laf, err := scheduler.NewLAF(scheduler.DefaultLAFConfig(), ring)
		if err != nil {
			schedErr = err
			return
		}
		for _, id := range ids {
			laf.AddNode(id, taskSlots)
		}
		for _, t := range tasks {
			laf.Submit(t, 0)
		}
		for laf.Pending() > 0 {
			assigned := laf.Dispatch(0)
			if len(assigned) == 0 {
				schedErr = fmt.Errorf("dispatch probe: %d tasks pending but none assignable", laf.Pending())
				return
			}
			for _, a := range assigned {
				laf.Release(a.Node)
			}
		}
	})
	return d, schedErr
}

// probeTransport times TCP.Call echoes of 1 KiB and 256 KiB bodies and an
// EncodeFrame + DecodeFrame pair on a 64 KiB payload.
func probeTransport(ctx context.Context, m map[string]float64) (err error) {
	const echoID = hashing.NodeID("probe-echo")
	tcp := transport.NewTCP(map[hashing.NodeID]string{echoID: "127.0.0.1:0"}, rpcTimeout)
	defer func() {
		if cerr := tcp.Close(); err == nil {
			err = cerr
		}
	}()
	echo := func(_ context.Context, _ string, body []byte) ([]byte, error) { return body, nil }
	if err := tcp.Listen(echoID, echo); err != nil {
		return err
	}
	for _, size := range []struct {
		name  string
		bytes int
	}{{"transport.roundtrip_1k_us", 1 << 10}, {"transport.roundtrip_256k_us", 256 << 10}} {
		body := make([]byte, size.bytes)
		// One untimed call opens the connection.
		if _, err := tcp.Call(ctx, echoID, "probe.echo", body); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < probeRoundTrips; i++ {
			if _, err := tcp.Call(ctx, echoID, "probe.echo", body); err != nil {
				return err
			}
		}
		m[size.name] = per(time.Since(start), probeRoundTrips, time.Microsecond)
	}

	type frameHeader struct {
		Job       string
		Partition int
		Lens      []int
	}
	hdr := frameHeader{Job: "probe", Partition: 3, Lens: []int{64 << 10}}
	payload := make([]byte, 64<<10)
	var frameErr error
	const frames = 200
	m["transport.frame_ns"] = per(fastest(probeRounds, func() {
		for i := 0; i < frames; i++ {
			frame, err := transport.EncodeFrame(hdr, payload)
			if err != nil {
				frameErr = err
				return
			}
			var got frameHeader
			if _, err := transport.DecodeFrame(frame, &got); err != nil {
				frameErr = err
				return
			}
		}
	}), frames, time.Nanosecond)
	return frameErr
}
