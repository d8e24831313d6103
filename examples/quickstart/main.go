// Quickstart: boot an in-process EclipseMR cluster, store a text file in
// the DHT file system, run word count under the LAF scheduler, and print
// the ten most frequent words.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"strconv"

	"eclipsemr"
	"eclipsemr/internal/apps"
	"eclipsemr/internal/workloads"
)

func main() {
	// Eight worker servers in one process: each holds a DHT file system
	// shard whose intermediate results are its oCache, an iCache slice,
	// and 8 map + 8 reduce slots.
	c, err := eclipsemr.NewCluster(8, eclipsemr.Options{
		Policy: eclipsemr.PolicyLAF,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Generate ~1 MiB of Zipf-distributed text and upload it; blocks are
	// distributed across the ring by hash key with record-aligned cuts.
	text := workloads.Text(42, 1<<20, 5000)
	meta, err := c.UploadRecords("corpus.txt", "demo", eclipsemr.PermPublic, text, '\n')
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded corpus.txt: %d bytes in %d blocks\n", meta.Size, meta.Blocks())

	// Run the registered word count application (one map task per block;
	// intermediate results are proactively shuffled to reducer-side nodes
	// while the maps run).
	res, err := c.Run(eclipsemr.JobSpec{
		ID:     "quickstart-wc",
		App:    apps.WordCount,
		Inputs: []string{"corpus.txt"},
		User:   "demo",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job finished: %d map + %d reduce tasks in %v, %d shuffle bytes\n",
		res.MapTasks, res.ReduceTasks, res.Elapsed.Round(1e6), res.ShuffleBytes)

	pairs, err := c.Collect(res, "demo")
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(pairs, func(i, j int) bool {
		ni, _ := strconv.Atoi(string(pairs[i].Value))
		nj, _ := strconv.Atoi(string(pairs[j].Value))
		return ni > nj
	})
	fmt.Println("top words:")
	for i := 0; i < 10 && i < len(pairs); i++ {
		fmt.Printf("  %-12s %s\n", pairs[i].Key, pairs[i].Value)
	}
}
