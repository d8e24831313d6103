package eclipsemr_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"eclipsemr"
	"eclipsemr/internal/apps"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/workloads"
)

// These tests exercise the repository's public surface the way a
// downstream user would: boot a cluster through the facade, use the
// shipped applications and register a custom one.

func newFacadeCluster(t *testing.T, n int, opts eclipsemr.Options) *eclipsemr.Cluster {
	t.Helper()
	if opts.Config.BlockSize == 0 {
		opts.Config.BlockSize = 1024
	}
	if opts.Config.CacheBytes == 0 {
		opts.Config.CacheBytes = 8 << 20
	}
	c, err := eclipsemr.NewCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestFacadeWordCount(t *testing.T) {
	c := newFacadeCluster(t, 4, eclipsemr.Options{Policy: eclipsemr.PolicyLAF})
	text := []byte(strings.Repeat("go gopher go\n", 500))
	meta, err := c.UploadRecords("f.txt", "u", eclipsemr.PermPublic, text, '\n')
	if err != nil {
		t.Fatal(err)
	}
	if meta.Blocks() < 2 {
		t.Fatalf("blocks = %d", meta.Blocks())
	}
	res, err := c.Run(eclipsemr.JobSpec{
		ID: "facade-wc", App: apps.WordCount, Inputs: []string{"f.txt"}, User: "u",
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, kv := range pairs {
		counts[kv.Key] = string(kv.Value)
	}
	if counts["go"] != "1000" || counts["gopher"] != "500" {
		t.Fatalf("counts = %v", counts)
	}
}

func TestFacadeCustomApplication(t *testing.T) {
	eclipsemr.Register("facade-linelen", eclipsemr.App{
		Map: func(_ eclipsemr.Params, input []byte, emit eclipsemr.Emit) error {
			for _, line := range strings.Split(string(input), "\n") {
				if line == "" {
					continue
				}
				if err := emit(strconv.Itoa(len(line)), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: func(_ eclipsemr.Params, key string, values [][]byte, emit eclipsemr.Emit) error {
			return emit(key, []byte(strconv.Itoa(len(values))))
		},
	})
	found := false
	for _, name := range eclipsemr.RegisteredApps() {
		if name == "facade-linelen" {
			found = true
		}
	}
	if !found {
		t.Fatal("custom app not listed")
	}
	c := newFacadeCluster(t, 3, eclipsemr.Options{})
	text := []byte("aa\nbbb\naa\ncccc\nbbb\nbbb\n")
	if _, err := c.UploadRecords("lines.txt", "u", eclipsemr.PermPublic, text, '\n'); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(eclipsemr.JobSpec{
		ID: "facade-ll", App: "facade-linelen", Inputs: []string{"lines.txt"}, User: "u",
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range pairs {
		got[kv.Key] = string(kv.Value)
	}
	if got["2"] != "2" || got["3"] != "3" || got["4"] != "1" {
		t.Fatalf("line-length histogram = %v", got)
	}
}

// TestFacadeDecodingApplication: the same histogram written as a decoder
// plus a map over its split; the second job is served the first's splits.
func TestFacadeDecodingApplication(t *testing.T) {
	eclipsemr.Register("facade-linelen-decoded", eclipsemr.App{
		Decode: func(block []byte) (any, int64, error) {
			var lens []int
			for _, line := range strings.Split(string(block), "\n") {
				if line != "" {
					lens = append(lens, len(line))
				}
			}
			return lens, int64(8 * cap(lens)), nil
		},
		MapDecoded: func(p eclipsemr.Params, split any, emit eclipsemr.Emit) error {
			for _, n := range split.([]int) {
				if err := emit(p.Get("prefix")+strconv.Itoa(n), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: func(_ eclipsemr.Params, key string, values [][]byte, emit eclipsemr.Emit) error {
			return emit(key, []byte(strconv.Itoa(len(values))))
		},
	})
	// One node: the second job cannot be scheduled away from the splits.
	c := newFacadeCluster(t, 1, eclipsemr.Options{})
	text := []byte("aa\nbbb\naa\ncccc\nbbb\nbbb\n")
	if _, err := c.UploadRecords("lines.txt", "u", eclipsemr.PermPublic, text, '\n'); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"len", "n"} {
		res, err := c.Run(eclipsemr.JobSpec{
			ID: "facade-lld-" + prefix, App: "facade-linelen-decoded", Inputs: []string{"lines.txt"}, User: "u",
			Params: eclipsemr.Params{"prefix": []byte(prefix)},
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := c.Collect(res, "u")
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, kv := range pairs {
			got[kv.Key] = string(kv.Value)
		}
		if got[prefix+"2"] != "2" || got[prefix+"3"] != "3" || got[prefix+"4"] != "1" {
			t.Fatalf("line-length histogram under %q = %v", prefix, got)
		}
	}
	snap := c.MetricsSnapshot()
	if snap.Get("mr.map.decode_misses") == 0 || snap.Get("mr.map.decode_hits") == 0 {
		t.Fatalf("decode misses/hits = %d/%d, want the first job to decode and the second to reuse",
			snap.Get("mr.map.decode_misses"), snap.Get("mr.map.decode_hits"))
	}
}

func TestFacadeFileLifecycle(t *testing.T) {
	c := newFacadeCluster(t, 3, eclipsemr.Options{})
	data := workloads.Text(5, 8<<10, 100)
	if _, err := c.Upload("life.dat", "owner", eclipsemr.PermPrivate, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("life.dat", "owner")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
	// Private file: others cannot read it.
	if _, err := c.ReadFile("life.dat", "stranger"); !dhtfs.IsPermission(err) {
		t.Fatalf("stranger read err = %v", err)
	}
	if err := c.DeleteFile("life.dat", "owner"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("life.dat", "owner"); !dhtfs.IsNotFound(err) {
		t.Fatalf("read after delete err = %v", err)
	}
}

func TestFacadeIterativeDriversAndMigration(t *testing.T) {
	c := newFacadeCluster(t, 4, eclipsemr.Options{Policy: eclipsemr.PolicyLAF})
	data, _ := workloads.Points(9, 400, 2, 2)
	if _, err := c.UploadRecords("pts.csv", "u", eclipsemr.PermPublic, data, '\n'); err != nil {
		t.Fatal(err)
	}
	res, err := apps.RunKMeans(c, "pts.csv", "u", [][]float64{{1, 1}, {-1, -1}}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids = %v", res.Centroids)
	}
	// The cache-migration option runs cluster-wide without error (zero
	// migrations is fine — ranges may not have moved).
	if _, err := c.MigrateMisplacedCaches(); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Insertions == 0 {
		t.Fatal("no cache activity recorded")
	}
}

func TestFacadeDefaultLAFConfig(t *testing.T) {
	cfg := eclipsemr.DefaultLAFConfig()
	if cfg.KDE.Alpha != 0.001 {
		t.Fatalf("alpha = %g", cfg.KDE.Alpha)
	}
}
