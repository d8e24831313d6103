// Command eclipse-node runs one EclipseMR worker server over TCP. Every
// node serves the DHT file system, the distributed in-memory cache and
// MapReduce tasks; the node started with -bootstrap additionally assumes
// the manager role, resource manager and LAF job scheduler, once every
// peer in the hosts file is reachable. Later failures are handled by
// heartbeats and election, and the elected node starts its own scheduler.
//
// The hosts file lists one node per line: "<node-id> <host:port>".
//
// Example 3-node cluster on one machine:
//
//	cat > hosts.txt <<EOF
//	worker-00 127.0.0.1:7001
//	worker-01 127.0.0.1:7002
//	worker-02 127.0.0.1:7003
//	EOF
//	eclipse-node -id worker-00 -hosts hosts.txt &
//	eclipse-node -id worker-01 -hosts hosts.txt &
//	eclipse-node -id worker-02 -hosts hosts.txt -bootstrap
//
// Then use eclipse-cli to upload files and submit jobs.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "eclipsemr/internal/apps" // register the standard applications
	"eclipsemr/internal/cluster"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/nodecmd"
	"eclipsemr/internal/transport"
)

func main() {
	var (
		id        = flag.String("id", "", "this node's ID (must appear in the hosts file)")
		hostsPath = flag.String("hosts", "", "path to the hosts file (\"id host:port\" lines)")
		bootstrap = flag.Bool("bootstrap", false, "assume the resource-manager role once all peers are up")
		slots     = flag.Int("slots", 8, "map task slots (reduce slots match)")
		replicas  = flag.Int("replicas", 3, "file system replication factor")
		cacheMB   = flag.Int64("cache-mb", 256, "in-memory cache per node (MiB)")
		blockKB   = flag.Int("block-kb", 4096, "file system block size (KiB)")
		dataDir   = flag.String("data", "", "persist file system blocks under DIR/<id> (empty = in memory)")
		metricsAt = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9090; empty = off)")
		traceOn   = flag.Bool("trace", false, "record per-job spans (collect with eclipse-cli trace <job-id>)")
		bundleDir = flag.String("debug-bundle-on-failure", "", "snapshot a cluster-wide debug bundle into DIR when a job this node drives fails (empty = off)")
	)
	flag.Parse()
	if *id == "" || *hostsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	hosts, err := nodecmd.ReadHosts(*hostsPath)
	if err != nil {
		log.Fatalf("eclipse-node: %v", err)
	}
	if _, ok := hosts[hashing.NodeID(*id)]; !ok {
		log.Fatalf("eclipse-node: id %q not in hosts file", *id)
	}
	// Retry wraps TCP so transient network hiccups are absorbed below the
	// application, and per-RPC latency histograms are recorded per method.
	net := transport.NewRetry(transport.NewTCP(hosts, 30*time.Second), transport.DefaultRetryPolicy())
	defer func() {
		if err := net.Close(); err != nil {
			log.Printf("eclipse-node: closing transport: %v", err)
		}
	}()

	cfg := cluster.Config{
		Replicas:    *replicas,
		MapSlots:    *slots,
		ReduceSlots: *slots,
		CacheBytes:  *cacheMB << 20,
		BlockSize:   *blockKB << 10,
		DataDir:     *dataDir,
	}
	node, err := cluster.NewNode(hashing.NodeID(*id), net, cfg)
	if err != nil {
		log.Fatalf("eclipse-node: %v", err)
	}
	node.Tracer().SetEnabled(*traceOn)

	node.SetBundleDir(*bundleDir)
	node.SetExtraHandler(nodecmd.ClientHandler(node))
	node.AddMetricsSource(net.NetMetrics().Snapshot)

	if *metricsAt != "" {
		addr, stopMetrics, err := nodecmd.ServeMetrics(*metricsAt, func() metrics.Snapshot {
			return node.MetricsSnapshot()
		}, node.Health)
		if err != nil {
			log.Fatalf("eclipse-node: metrics endpoint: %v", err)
		}
		defer stopMetrics()
		log.Printf("eclipse-node %s metrics on http://%s/metrics (healthz, readyz, pprof on /debug/pprof/)", *id, addr)
	}

	if err := node.Start(); err != nil {
		log.Fatalf("eclipse-node: %v", err)
	}
	log.Printf("eclipse-node %s listening on %s (%d peers)", *id, hosts[hashing.NodeID(*id)], len(hosts))

	if *bootstrap {
		//lint:ignore goroleak one-shot bootstrap: returns after WaitForPeers resolves or log.Fatalf kills the process
		go func() {
			ring, err := nodecmd.WaitForPeers(net, hosts, hashing.NodeID(*id), 2*time.Minute)
			if err != nil {
				log.Fatalf("eclipse-node: bootstrap: %v", err)
			}
			if _, err := node.BecomeManagerWith(ring, 1); err != nil {
				log.Fatalf("eclipse-node: bootstrap: %v", err)
			}
			log.Printf("eclipse-node %s became resource manager (%d members)", *id, ring.Len())
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("eclipse-node %s shutting down", *id)
	node.Close()
}
