package main

import (
	"context"
	"testing"
)

// TestSeedDeterminism pins the seed handling: the same seed gives
// byte-identical inputs and, with a fixed operation list on the
// single-client workloads, exactly equal work counters; another seed
// gives other inputs. dhtfs.blocks_written is not among the counters: the
// job journal coalesces flushes by timing, so it differs by a few blocks
// between identical runs.
func TestSeedDeterminism(t *testing.T) {
	exact := []string{"mapreduce.map_tasks", "mapreduce.reduce_tasks", "mapreduce.shuffle_bytes", "cache.misses"}
	for _, name := range []string{"wc_warm", "sort_shuffle", "scan_cold", "iter_kmeans"} {
		run := func(seed int64) record {
			cfg := runConfig{workload: name, seed: seed, ops: 3, traced: true, short: true, outDir: t.TempDir()}
			rec, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if rec.Failed != 0 {
				t.Errorf("%s seed %d: %d operations failed", name, seed, rec.Failed)
			}
			return rec
		}
		a, b, other := run(7), run(7), run(8)
		if a.InputsSHA1 != b.InputsSHA1 {
			t.Errorf("%s: seed 7 gave inputs %s then %s", name, a.InputsSHA1, b.InputsSHA1)
		}
		if a.InputsSHA1 == other.InputsSHA1 {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
		for _, m := range exact {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s = %v then %v on the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}
