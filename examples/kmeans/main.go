// K-means: Lloyd's algorithm as an iterative MapReduce job over a
// Gaussian-mixture point set. The map tasks aggregate partial centroid
// sums locally (which is why the paper's k-means iteration output is only
// kilobytes), and the driver feeds the new centroids to the next
// iteration through job parameters. A second, unchanged run under a reuse
// tag shows a published map phase reused: it skips its maps entirely.
//
//	go run ./examples/kmeans
package main

import (
	"fmt"
	"log"

	"eclipsemr"
	"eclipsemr/internal/apps"
	"eclipsemr/internal/workloads"
)

func main() {
	c, err := eclipsemr.NewCluster(6, eclipsemr.Options{
		Policy: eclipsemr.PolicyLAF,
		Config: eclipsemr.Config{BlockSize: 8 << 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	data, truth := workloads.Points(3, 3000, 2, 4)
	if _, err := c.UploadRecords("points.csv", "demo", eclipsemr.PermPublic, data, '\n'); err != nil {
		log.Fatal(err)
	}

	initial := [][]float64{{-5, -5}, {5, 5}, {-5, 5}, {5, -5}}
	res, err := apps.RunKMeans(c, "points.csv", "demo", initial, 6, false)
	if err != nil {
		log.Fatal(err)
	}
	for i := range res.Shifts {
		fmt.Printf("iteration %d: centroid shift %.4f in %v\n",
			i+1, res.Shifts[i], res.IterationTimes[i].Round(1e6))
	}
	fmt.Println("learned centroids (true cluster centers in parentheses):")
	for _, got := range res.Centroids {
		// Find the nearest true center for display.
		best, bestD := truth[0], 1e18
		for _, tc := range truth {
			d := (got[0]-tc[0])*(got[0]-tc[0]) + (got[1]-tc[1])*(got[1]-tc[1])
			if d < bestD {
				best, bestD = tc, d
			}
		}
		fmt.Printf("  (%7.3f, %7.3f)   (true: %7.3f, %7.3f)\n", got[0], got[1], best[0], best[1])
	}

	// The first job publishes its map phase under the reuse tag; the
	// second, the same application over the same unchanged input, reduces
	// the published intermediate results instead of running its maps
	// (§II-C).
	spec := eclipsemr.JobSpec{
		ID: "wc-shared-1", App: apps.WordCount, Inputs: []string{"points.csv"},
		User: "demo", ReuseTag: "points-words",
	}
	first, err := c.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	spec.ID = "wc-shared-2"
	second, err := c.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reuse demo: first run executed %d maps; second run skipped maps: %v\n",
		first.MapTasks, second.MapsSkipped)
}
