// Page rank: run the iterative page rank application over a synthetic
// power-law web graph, storing each iteration's outputs in the DHT file
// system as the paper's iterative experiments do, then print the
// highest-ranked nodes. Each iteration's intermediate results stay in
// the nodes' segment stores, the oCache, until its budget evicts them.
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"log"
	"sort"

	"eclipsemr"
	"eclipsemr/internal/apps"
	"eclipsemr/internal/workloads"
)

func main() {
	c, err := eclipsemr.NewCluster(6, eclipsemr.Options{Policy: eclipsemr.PolicyLAF})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	const n = 500
	graph := workloads.Graph(7, n, 4)
	if _, err := c.UploadRecords("web.graph", "demo", eclipsemr.PermPublic, graph, '\n'); err != nil {
		log.Fatal(err)
	}

	res, err := apps.RunPageRank(c, "web.graph", "demo", n, 5)
	if err != nil {
		log.Fatal(err)
	}
	for i, d := range res.IterationTimes {
		fmt.Printf("iteration %d: %v (%d maps, %d reduces)\n",
			i+1, d.Round(1e6), res.Results[i].MapTasks, res.Results[i].ReduceTasks)
	}

	type ranked struct {
		node string
		rank float64
	}
	var all []ranked
	var total float64
	for node, r := range res.Ranks {
		all = append(all, ranked{node, r})
		total += r
	}
	sort.Slice(all, func(i, j int) bool { return all[i].rank > all[j].rank })
	fmt.Printf("rank mass: %.4f over %d nodes\n", total, len(all))
	fmt.Println("top pages:")
	for i := 0; i < 10 && i < len(all); i++ {
		fmt.Printf("  node %-6s rank %.5f\n", all[i].node, all[i].rank)
	}
}
