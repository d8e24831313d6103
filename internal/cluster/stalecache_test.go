package cluster

import (
	"fmt"
	"strings"
	"testing"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/mapreduce"
)

func init() {
	// cluster-wordcount behind a decoder: the split is the block's words.
	mapreduce.Register("cluster-decoded-wordcount", mapreduce.App{
		Decode: func(block []byte) (any, int64, error) {
			words := strings.Fields(string(block))
			return words, int64(len(block) + 16*len(words)), nil
		},
		MapDecoded: func(_ mapreduce.Params, split any, emit mapreduce.Emit) error {
			for _, w := range split.([]string) {
				if err := emit(w, []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: sumCounts,
	})
}

// TestReuploadedFileIsNotServedFromStaleCache: block keys derive from
// (file name, index), so a file deleted and uploaded again with other
// bytes reuses the keys of what the first jobs left in every iCache. The
// second generation of jobs must count the second file, with a plain
// application (cached bytes) and a decoding one (cached splits) alike.
func TestReuploadedFileIsNotServedFromStaleCache(t *testing.T) {
	for _, app := range []string{"cluster-wordcount", "cluster-decoded-wordcount"} {
		t.Run(app, func(t *testing.T) {
			c := newTestCluster(t, 4, Options{})
			counts := func(id string) string {
				t.Helper()
				res, err := c.Run(mapreduce.JobSpec{ID: id, App: app, Inputs: []string{"f"}, User: "u"})
				if err != nil {
					t.Fatal(err)
				}
				kvs, err := c.Collect(res, "u")
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]string{}
				for _, kv := range kvs {
					got[kv.Key] = string(kv.Value)
				}
				return fmt.Sprint(got)
			}
			upload := func(line string) {
				t.Helper()
				// Equal line lengths: both files cut into the same blocks.
				if _, err := c.UploadRecords("f", "u", dhtfs.PermPublic, []byte(strings.Repeat(line, 200)), '\n'); err != nil {
					t.Fatal(err)
				}
			}
			upload("alpha beta alpha gamma\n")
			const first = "map[alpha:400 beta:200 gamma:200]"
			// Twice, so that bytes and splits are cached and served once.
			for _, id := range []string{"gen1-a", "gen1-b"} {
				if got := counts(id); got != first {
					t.Fatalf("%s counted %s, want %s", id, got, first)
				}
			}
			if c.CacheStats().Hits == 0 {
				t.Fatal("the second job hit no cache: the case exercises nothing")
			}
			if err := c.DeleteFile("f", "u"); err != nil {
				t.Fatal(err)
			}
			upload("delta delta gamma delta\n")
			const second = "map[delta:600 gamma:200]"
			for _, id := range []string{"gen2-a", "gen2-b"} {
				if got := counts(id); got != second {
					t.Fatalf("%s, after delete and re-upload, counted %s, want %s", id, got, second)
				}
			}
		})
	}
}
