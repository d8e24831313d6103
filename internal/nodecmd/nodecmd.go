// Package nodecmd holds the deployment glue shared by cmd/eclipse-node
// and cmd/eclipse-cli: hosts-file parsing, cluster bootstrap waiting, the
// client-facing RPC methods a node mounts (file upload/read, job
// submission), and the client-side helpers that call them.
package nodecmd

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"eclipsemr/internal/cluster"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
)

// ReadHosts parses a hosts file of "node-id host:port" lines. Blank lines
// and #-comments are ignored.
func ReadHosts(path string) (map[hashing.NodeID]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hosts := make(map[hashing.NodeID]string)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("hosts file %s:%d: want \"id host:port\", got %q", path, lineNo, line)
		}
		hosts[hashing.NodeID(fields[0])] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("hosts file %s is empty", path)
	}
	return hosts, nil
}

// WaitForPeers pings every host until all respond (or the deadline
// lapses), then returns the bootstrap ring containing every node.
func WaitForPeers(net transport.Network, hosts map[hashing.NodeID]string, self hashing.NodeID, timeout time.Duration) (*hashing.ChordRing, error) {
	deadline := time.Now().Add(timeout)
	pending := make(map[hashing.NodeID]bool, len(hosts))
	for id := range hosts {
		if id != self {
			pending[id] = true
		}
	}
	body, err := transport.Encode(struct{}{})
	if err != nil {
		return nil, err
	}
	for len(pending) > 0 {
		for id := range pending {
			if _, err := net.Call(context.Background(), id, "cluster.ping", body); err == nil {
				delete(pending, id)
			}
		}
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("nodecmd: %d peers unreachable after %v", len(pending), timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
	ring := hashing.NewChordRing()
	for id := range hosts {
		if err := ring.AddNode(id); err != nil {
			return nil, err
		}
	}
	return ring, nil
}

// Client-facing wire messages.
type (
	// UploadReq stores a file in the DHT file system.
	UploadReq struct {
		Name    string
		Owner   string
		Public  bool
		Data    []byte
		Records bool // record-aligned blocks (newline delimiter)
	}
	// UploadResp returns the stored metadata summary.
	UploadResp struct {
		Blocks int
		Size   int64
	}
	// ReadReq fetches a file.
	ReadReq struct {
		Name string
		User string
	}
	// ReadResp returns file contents.
	ReadResp struct {
		Data []byte
	}
	// RunReq submits a job to the manager.
	RunReq struct {
		Spec mapreduce.JobSpec
	}
	// RunResp returns the job result.
	RunResp struct {
		Result mapreduce.Result
	}
	// CollectReq fetches a finished job's output pairs.
	CollectReq struct {
		Result mapreduce.Result
		User   string
	}
	// CollectResp returns the merged pairs.
	CollectResp struct {
		Pairs []mapreduce.KV
	}
	// ResumeReq asks the manager to adopt an interrupted job from its
	// durable journal and finish it.
	ResumeReq struct {
		Job string
	}
	// JobsResp lists journaled jobs that have not completed (resume
	// candidates).
	JobsResp struct {
		Jobs []string
	}
	// ListReq asks a node for the files whose metadata it holds.
	ListReq struct {
		User string
		// All includes the framework's internal files (_mr/).
		All bool
	}
	// ListResp returns readable file names held by the queried node; the
	// caller merges across nodes (metadata is replicated).
	ListResp struct {
		Names []string
	}
)

// Client-facing method names.
const (
	MethodUpload  = "client.upload"
	MethodRead    = "client.read"
	MethodList    = "client.list"
	MethodRun     = "job.run"
	MethodCollect = "job.collect"
	MethodResume  = "job.resume"
	MethodJobs    = "job.jobs"
)

// ClientHandler mounts the client-facing methods on a node. The job
// methods run on the driver of the node's manager role, whichever node
// holds it now; a node without the role refuses them.
func ClientHandler(node *cluster.Node) func(string, []byte) ([]byte, bool, error) {
	driver := func() (*mapreduce.Driver, error) {
		if mgr := node.Manager(); mgr != nil {
			return mgr.Driver(), nil
		}
		return nil, fmt.Errorf("node %s is not the manager (ask the manager)", node.ID)
	}
	return func(method string, body []byte) ([]byte, bool, error) {
		switch method {
		case MethodUpload:
			var req UploadReq
			if err := transport.Decode(body, &req); err != nil {
				return nil, true, err
			}
			perm := dhtfs.PermPrivate
			if req.Public {
				perm = dhtfs.PermPublic
			}
			// req.Data is this request's own body: the upload takes it.
			var meta dhtfs.Metadata
			var err error
			if req.Records {
				meta, err = node.FS().UploadRecords(context.Background(), req.Name, req.Owner, perm, req.Data, node.BlockSize(), '\n')
			} else {
				meta, err = node.FS().Upload(context.Background(), req.Name, req.Owner, perm, req.Data, node.BlockSize())
			}
			if err != nil {
				return nil, true, err
			}
			out, err := transport.Encode(UploadResp{Blocks: meta.Blocks(), Size: meta.Size})
			return out, true, err
		case MethodRead:
			var req ReadReq
			if err := transport.Decode(body, &req); err != nil {
				return nil, true, err
			}
			data, err := node.FS().ReadFile(context.Background(), req.Name, req.User)
			if err != nil {
				return nil, true, err
			}
			out, err := transport.Encode(ReadResp{Data: data})
			return out, true, err
		case MethodList:
			var req ListReq
			if err := transport.Decode(body, &req); err != nil {
				return nil, true, err
			}
			var resp ListResp
			for _, name := range node.FS().Store().MetaNames() {
				if !req.All && strings.HasPrefix(name, "_mr/") {
					continue
				}
				meta, err := node.FS().Store().GetMeta(name)
				if err != nil || !meta.CanRead(req.User) {
					continue
				}
				resp.Names = append(resp.Names, name)
			}
			sort.Strings(resp.Names)
			out, err := transport.Encode(resp)
			return out, true, err
		case MethodRun:
			var req RunReq
			if err := transport.Decode(body, &req); err != nil {
				return nil, true, err
			}
			d, err := driver()
			if err != nil {
				return nil, true, err
			}
			res, err := d.Run(req.Spec)
			if err != nil {
				return nil, true, err
			}
			out, err := transport.Encode(RunResp{Result: res})
			return out, true, err
		case MethodResume:
			var req ResumeReq
			if err := transport.Decode(body, &req); err != nil {
				return nil, true, err
			}
			d, err := driver()
			if err != nil {
				return nil, true, err
			}
			res, err := d.Resume(req.Job)
			if err != nil {
				return nil, true, err
			}
			out, err := transport.Encode(RunResp{Result: res})
			return out, true, err
		case MethodJobs:
			d, err := driver()
			if err != nil {
				return nil, true, err
			}
			jobs, err := d.Orphans(context.Background())
			if err != nil {
				return nil, true, err
			}
			out, err := transport.Encode(JobsResp{Jobs: jobs})
			return out, true, err
		case MethodCollect:
			var req CollectReq
			if err := transport.Decode(body, &req); err != nil {
				return nil, true, err
			}
			d, err := driver()
			if err != nil {
				return nil, true, err
			}
			pairs, err := d.Collect(context.Background(), req.Result, req.User)
			if err != nil {
				return nil, true, err
			}
			out, err := transport.Encode(CollectResp{Pairs: pairs})
			return out, true, err
		}
		return nil, false, nil
	}
}

// Call is a typed client RPC helper.
func Call(net transport.Network, to hashing.NodeID, method string, req, resp any) error {
	body, err := transport.Encode(req)
	if err != nil {
		return err
	}
	out, err := net.Call(context.Background(), to, method, body)
	if err != nil {
		return err
	}
	if resp == nil {
		return nil
	}
	return transport.Decode(out, resp)
}

// FindManager asks any reachable node who the current resource manager
// is.
func FindManager(net transport.Network, hosts map[hashing.NodeID]string) (hashing.NodeID, error) {
	type pingResp struct {
		Epoch   uint64
		Manager hashing.NodeID
	}
	var lastErr error
	for id := range hosts {
		var resp pingResp
		if err := Call(net, id, "cluster.ping", struct{}{}, &resp); err != nil {
			lastErr = err
			continue
		}
		if resp.Manager != "" {
			return resp.Manager, nil
		}
		lastErr = fmt.Errorf("node %s has no manager yet", id)
	}
	return "", fmt.Errorf("nodecmd: no manager found: %v", lastErr)
}
