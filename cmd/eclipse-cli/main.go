// Command eclipse-cli is the client for a TCP EclipseMR cluster started
// with eclipse-node: it uploads files into the DHT file system, reads
// them back, and submits MapReduce jobs to the job scheduler.
//
// Usage:
//
//	eclipse-cli -hosts hosts.txt upload corpus.txt dht:corpus.txt
//	eclipse-cli -hosts hosts.txt run -app wordcount -inputs dht:corpus.txt
//	eclipse-cli -hosts hosts.txt run -app grep -inputs logs.txt -param pattern=ERROR
//	eclipse-cli -hosts hosts.txt cat dht:corpus.txt
//	eclipse-cli -hosts hosts.txt apps
//	eclipse-cli -hosts hosts.txt stats -watch
//	eclipse-cli -hosts hosts.txt trace -o trace.json wordcount-123
//	eclipse-cli -hosts hosts.txt events -kind task,membership wordcount-123
//	eclipse-cli -hosts hosts.txt debug bundle -o bundle.json -job wordcount-123
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	_ "eclipsemr/internal/apps" // same registry as the nodes, for `apps`
	"eclipsemr/internal/bundle"
	"eclipsemr/internal/cluster"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/nodecmd"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

func main() {
	var (
		hostsPath = flag.String("hosts", "", "path to the cluster hosts file")
		user      = flag.String("user", "cli", "user name for permissions")
	)
	flag.Parse()
	if *hostsPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: eclipse-cli -hosts FILE {upload|cat|ls|run|job|apps|stats|trace|events|debug} ...")
		os.Exit(2)
	}
	hosts, err := nodecmd.ReadHosts(*hostsPath)
	if err != nil {
		log.Fatalf("eclipse-cli: %v", err)
	}
	net := transport.NewTCP(hosts, 10*time.Minute)
	defer func() {
		if err := net.Close(); err != nil {
			log.Printf("eclipse-cli: closing transport: %v", err)
		}
	}()

	// callAny tries each host in turn: any node can serve DHT requests, so
	// a dead entry in the hosts file must not fail the whole command.
	callAny := func(method string, req, resp interface{}) error {
		var lastErr error
		for _, id := range sortedIDs(hosts) {
			err := nodecmd.Call(net, id, method, req, resp)
			if err == nil {
				return nil
			}
			lastErr = err
			if errors.Is(err, transport.ErrUnreachable) || transport.IsTransient(err) {
				continue // dead or flaky node: the next one can answer
			}
			return err
		}
		return lastErr
	}

	switch cmd := flag.Arg(0); cmd {
	case "upload":
		if flag.NArg() != 3 {
			log.Fatal("usage: upload <local-file> <dht-name>")
		}
		data, err := os.ReadFile(flag.Arg(1))
		if err != nil {
			log.Fatalf("eclipse-cli: %v", err)
		}
		var resp nodecmd.UploadResp
		req := nodecmd.UploadReq{
			Name: flag.Arg(2), Owner: *user, Public: true, Data: data, Records: true,
		}
		if err := callAny(nodecmd.MethodUpload, req, &resp); err != nil {
			log.Fatalf("eclipse-cli: upload: %v", err)
		}
		fmt.Printf("stored %s: %d bytes in %d blocks\n", flag.Arg(2), resp.Size, resp.Blocks)

	case "cat":
		if flag.NArg() != 2 {
			log.Fatal("usage: cat <dht-name>")
		}
		var resp nodecmd.ReadResp
		req := nodecmd.ReadReq{Name: flag.Arg(1), User: *user}
		if err := callAny(nodecmd.MethodRead, req, &resp); err != nil {
			log.Fatalf("eclipse-cli: cat: %v", err)
		}
		os.Stdout.Write(resp.Data)

	case "run":
		runCmd := flag.NewFlagSet("run", flag.ExitOnError)
		app := runCmd.String("app", "", "registered application name")
		inputs := runCmd.String("inputs", "", "comma-separated DHT input files")
		id := runCmd.String("id", "", "job ID (default derived from app and time)")
		reuse := runCmd.String("reuse", "", "reuse tag: publish the map phase under it, or reduce the one it published if its signature is this job's")
		var params paramList
		runCmd.Var(&params, "param", "application parameter key=value (repeatable)")
		if err := runCmd.Parse(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		if *app == "" || *inputs == "" {
			log.Fatal("usage: run -app NAME -inputs f1,f2 [-param k=v]...")
		}
		if *id == "" {
			*id = fmt.Sprintf("%s-%d", *app, time.Now().UnixNano())
		}
		mgr, err := nodecmd.FindManager(net, hosts)
		if err != nil {
			log.Fatalf("eclipse-cli: %v", err)
		}
		spec := mapreduce.JobSpec{
			ID:       *id,
			App:      *app,
			Inputs:   strings.Split(*inputs, ","),
			User:     *user,
			Params:   params.p,
			ReuseTag: *reuse,
		}
		started := time.Now()
		var runResp nodecmd.RunResp
		if err := nodecmd.Call(net, mgr, nodecmd.MethodRun, nodecmd.RunReq{Spec: spec}, &runResp); err != nil {
			log.Fatalf("eclipse-cli: run: %v", err)
		}
		res := runResp.Result
		fmt.Fprintf(os.Stderr, "job %s: %d map + %d reduce tasks in %v (cache hits %d/%d)\n",
			res.Job, res.MapTasks, res.ReduceTasks, time.Since(started).Round(time.Millisecond),
			res.CacheHits, res.CacheHits+res.CacheMisses)
		var collected nodecmd.CollectResp
		if err := nodecmd.Call(net, mgr, nodecmd.MethodCollect,
			nodecmd.CollectReq{Result: res, User: *user}, &collected); err != nil {
			log.Fatalf("eclipse-cli: collect: %v", err)
		}
		for _, kv := range collected.Pairs {
			fmt.Printf("%s\t%s\n", kv.Key, kv.Value)
		}

	case "job":
		if flag.NArg() < 2 {
			log.Fatal("usage: job {ls | resume <job-id>}")
		}
		switch sub := flag.Arg(1); sub {
		case "ls":
			mgr, err := nodecmd.FindManager(net, hosts)
			if err != nil {
				log.Fatalf("eclipse-cli: %v", err)
			}
			var resp nodecmd.JobsResp
			if err := nodecmd.Call(net, mgr, nodecmd.MethodJobs, nodecmd.ResumeReq{}, &resp); err != nil {
				log.Fatalf("eclipse-cli: job ls: %v", err)
			}
			if len(resp.Jobs) == 0 {
				fmt.Fprintln(os.Stderr, "no interrupted jobs")
				break
			}
			for _, id := range resp.Jobs {
				fmt.Println(id)
			}
		case "resume":
			if flag.NArg() != 3 {
				log.Fatal("usage: job resume <job-id>")
			}
			mgr, err := nodecmd.FindManager(net, hosts)
			if err != nil {
				log.Fatalf("eclipse-cli: %v", err)
			}
			started := time.Now()
			var runResp nodecmd.RunResp
			req := nodecmd.ResumeReq{Job: flag.Arg(2)}
			if err := nodecmd.Call(net, mgr, nodecmd.MethodResume, req, &runResp); err != nil {
				log.Fatalf("eclipse-cli: job resume: %v", err)
			}
			res := runResp.Result
			fmt.Fprintf(os.Stderr, "job %s resumed: %d map + %d reduce tasks re-executed, %d partitions recovered, done in %v\n",
				res.Job, res.MapTasks, res.ReduceTasks, res.RecoveredPartitions,
				time.Since(started).Round(time.Millisecond))
			var collected nodecmd.CollectResp
			if err := nodecmd.Call(net, mgr, nodecmd.MethodCollect,
				nodecmd.CollectReq{Result: res, User: *user}, &collected); err != nil {
				log.Fatalf("eclipse-cli: collect: %v", err)
			}
			for _, kv := range collected.Pairs {
				fmt.Printf("%s\t%s\n", kv.Key, kv.Value)
			}
		default:
			log.Fatalf("eclipse-cli: unknown job subcommand %q", sub)
		}

	case "ls":
		seen := map[string]bool{}
		for _, id := range sortedIDs(hosts) {
			var resp nodecmd.ListResp
			if err := nodecmd.Call(net, id, nodecmd.MethodList, nodecmd.ListReq{User: *user}, &resp); err != nil {
				continue // partial listings are fine: metadata is replicated
			}
			for _, n := range resp.Names {
				seen[n] = true
			}
		}
		names := make([]string, 0, len(seen))
		for n := range seen {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}

	case "apps":
		for _, name := range mapreduce.RegisteredApps() {
			fmt.Println(name)
		}

	case "stats":
		statsCmd := flag.NewFlagSet("stats", flag.ExitOnError)
		watch := statsCmd.Bool("watch", false, "redraw the merged snapshot periodically")
		interval := statsCmd.Duration("interval", 2*time.Second, "refresh interval with -watch")
		if err := statsCmd.Parse(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		for {
			if *watch {
				fmt.Print("\x1b[H\x1b[2J") // home + clear, like watch(1)
			}
			printClusterStats(net, hosts)
			if !*watch {
				break
			}
			time.Sleep(*interval)
		}

	case "trace":
		traceCmd := flag.NewFlagSet("trace", flag.ExitOnError)
		out := traceCmd.String("o", "", "write Chrome trace-event JSON to this file")
		if err := traceCmd.Parse(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		if traceCmd.NArg() != 1 {
			log.Fatal("usage: trace [-o trace.json] <job-id>")
		}
		jobID := traceCmd.Arg(0)

		// Every node keeps its own span ring; collect them all and merge.
		// The driver re-emits spans for tasks it dispatched, so Dedupe
		// collapses duplicates by span ID.
		var (
			spans   []trace.Span
			dropped int64
		)
		collect(net, hosts, "trace", cluster.MethodSpans, cluster.SpansReq{Trace: jobID}, func(r *cluster.SpansResp) {
			spans = append(spans, r.Spans...)
			dropped += r.Dropped
		})
		spans = trace.Dedupe(spans)
		if len(spans) == 0 {
			log.Fatalf("eclipse-cli: trace: no spans for job %q (was the cluster started with tracing enabled?)", jobID)
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d spans overwritten in node rings; the trace is incomplete\n", dropped)
		}
		fmt.Print(trace.RenderTimeline(spans))
		if *out != "" {
			data, err := trace.ChromeTrace(spans)
			if err != nil {
				log.Fatalf("eclipse-cli: trace: %v", err)
			}
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				log.Fatalf("eclipse-cli: trace: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %d spans to %s (load in Perfetto or chrome://tracing)\n", len(spans), *out)
		}

	case "events":
		evCmd := flag.NewFlagSet("events", flag.ExitOnError)
		kindsFlag := evCmd.String("kind", "", "comma-separated event kinds to keep (e.g. task,shuffle,membership)")
		nodeFlag := evCmd.String("node", "", "keep only events emitted by this node")
		sinceFlag := evCmd.Duration("since", 0, "keep only events from the last DURATION (e.g. 5m)")
		allFlag := evCmd.Bool("all", false, "every job plus cluster-scoped events (membership, fs repair)")
		if err := evCmd.Parse(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		var jobID string
		switch {
		case *allFlag && evCmd.NArg() == 0:
			jobID = "" // every job plus cluster-scoped membership events
		case !*allFlag && evCmd.NArg() == 1:
			jobID = evCmd.Arg(0)
		default:
			log.Fatalf("usage: events [-kind k1,k2] [-node id] [-since 5m] {<job-id> | -all}\nkinds: %s", strings.Join(events.Kinds(), ","))
		}
		kinds, err := events.ParseKinds(*kindsFlag)
		if err != nil {
			log.Fatalf("eclipse-cli: events: %v", err)
		}

		// Every node keeps its own event ring; collect them all and merge
		// into one deterministic timeline.
		var (
			evs     []events.Event
			dropped int64
		)
		collect(net, hosts, "events", cluster.MethodEvents, cluster.EventsReq{Job: jobID}, func(r *cluster.EventsResp) {
			evs = append(evs, r.Events...)
			dropped += r.Dropped
		})
		evs = events.Merge(evs)
		f := events.Filter{Kinds: kinds, Node: *nodeFlag}
		if *sinceFlag > 0 && len(evs) > 0 {
			// Node clocks stamp the events, so "the last 5m" is anchored on
			// the newest collected event, not this machine's clock.
			f.SinceNS = evs[len(evs)-1].AtNS - sinceFlag.Nanoseconds()
		}
		evs = events.Apply(evs, f)
		if len(evs) == 0 {
			if jobID == "" {
				log.Fatal("eclipse-cli: events: nothing matched")
			}
			log.Fatalf("eclipse-cli: events: nothing matched for job %q", jobID)
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d events overwritten in node rings; the timeline is incomplete\n", dropped)
		}
		fmt.Print(events.Render(evs))

	case "debug":
		if flag.NArg() < 2 || flag.Arg(1) != "bundle" {
			log.Fatal("usage: debug bundle [-o bundle.json] [-job id] [-reason why]")
		}
		dbCmd := flag.NewFlagSet("debug bundle", flag.ExitOnError)
		out := dbCmd.String("o", "bundle.json", "write the debug bundle to this file")
		job := dbCmd.String("job", "", "restrict the bundle to one job (default: everything)")
		reason := dbCmd.String("reason", "manual", "capture reason recorded in the bundle")
		if err := dbCmd.Parse(flag.Args()[2:]); err != nil {
			log.Fatal(err)
		}
		// Any node can assemble the bundle: it fans the collection RPCs
		// over its own membership view. Prefer the manager (its ring holds
		// the driver's job lifecycle events), fall back to any node.
		target, err := nodecmd.FindManager(net, hosts)
		if err != nil {
			for _, id := range sortedIDs(hosts) {
				var probe cluster.StatsResp
				if nodecmd.Call(net, id, cluster.MethodStats, struct{}{}, &probe) == nil {
					target, err = id, nil
					break
				}
			}
		}
		if err != nil {
			log.Fatalf("eclipse-cli: debug bundle: no node reachable: %v", err)
		}
		var resp cluster.BundleResp
		req := cluster.BundleReq{Job: *job, Reason: *reason}
		if err := nodecmd.Call(net, target, cluster.MethodBundle, req, &resp); err != nil {
			log.Fatalf("eclipse-cli: debug bundle: %v", err)
		}
		b, err := bundle.Decode(resp.Data)
		if err != nil {
			log.Fatalf("eclipse-cli: debug bundle: malformed bundle: %v", err)
		}
		if err := os.WriteFile(*out, resp.Data, 0o644); err != nil {
			log.Fatalf("eclipse-cli: debug bundle: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d events, %d spans, %d metric nodes, %d journal entries, %d members (assembled by %s)\n",
			*out, len(b.Events), len(b.Spans), len(b.Metrics), len(b.Journal), len(b.Membership.Members), target)

	default:
		log.Fatalf("eclipse-cli: unknown command %q", cmd)
	}
}

// collect asks every node in the hosts file for its ring (spans or
// events) and hands each reply to add. A node that does not answer is
// reported and skipped; the command dies only if none answers.
func collect[Resp any](net transport.Network, hosts map[hashing.NodeID]string, cmd, method string, req any, add func(*Resp)) {
	reached := 0
	for _, id := range sortedIDs(hosts) {
		var resp Resp
		if err := nodecmd.Call(net, id, method, req, &resp); err != nil {
			fmt.Fprintf(os.Stderr, "node %s: %v\n", id, err)
			continue
		}
		reached++
		add(&resp)
	}
	if reached == 0 {
		log.Fatalf("eclipse-cli: %s: no node reachable", cmd)
	}
}

// printClusterStats fetches every node's snapshot, merges them (values
// summed, histogram buckets added) and renders values followed by
// latency-histogram quantiles.
func printClusterStats(net transport.Network, hosts map[hashing.NodeID]string) {
	total := metrics.NewSnapshot()
	reached := 0
	for _, id := range sortedIDs(hosts) {
		var resp cluster.StatsResp
		if err := nodecmd.Call(net, id, cluster.MethodStats, struct{}{}, &resp); err != nil {
			fmt.Fprintf(os.Stderr, "node %s: %v\n", id, err)
			continue
		}
		reached++
		metrics.Merge(&total, resp.Metrics)
	}
	// Ratios cannot be summed across nodes: recompute the cluster-wide
	// hit ratio from the merged hit/miss counters.
	if lookups := total.Values["cache.hits"] + total.Values["cache.misses"]; lookups > 0 {
		total.Values["cache.hit_ratio_bp"] = total.Values["cache.hits"] * 10000 / lookups
	} else {
		delete(total.Values, "cache.hit_ratio_bp")
	}

	renderStats(os.Stdout, total, reached, len(hosts))
}

// paramList collects repeated -param key=value flags.
type paramList struct {
	p mapreduce.Params
}

func (l *paramList) String() string { return fmt.Sprint(l.p) }

func (l *paramList) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want key=value, got %q", v)
	}
	if l.p == nil {
		l.p = mapreduce.Params{}
	}
	l.p[parts[0]] = []byte(parts[1])
	return nil
}
