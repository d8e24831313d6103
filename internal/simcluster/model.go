package simcluster

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"eclipsemr/internal/cache"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/sim"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/workloads"
)

// Framework selects the simulated system.
type Framework string

// Simulated frameworks.
const (
	Eclipse Framework = "eclipse"
	Hadoop  Framework = "hadoop"
	Spark   Framework = "spark"
)

// Policy selects EclipseMR's scheduling algorithm (Hadoop always uses
// Fair, Spark always uses Delay, per the paper's comparison setup).
type Policy struct {
	// Kind is "laf" or "delay".
	Kind string
	// Alpha is LAF's moving-average weight factor.
	Alpha float64
	// Wait is the delay-scheduling wait (default 5 s).
	Wait time.Duration
}

// LAF returns the standard LAF policy with the given weight factor.
func LAF(alpha float64) Policy { return Policy{Kind: "laf", Alpha: alpha} }

// Delay returns the delay-scheduling policy with a 5 s wait.
func Delay() Policy { return Policy{Kind: "delay", Wait: 5 * time.Second} }

// Model simulates one framework instance on the testbed.
type Model struct {
	S    *sim.Sim
	p    Params
	fw   FrameworkParams
	kind Framework

	sched    scheduler.Scheduler
	ring     *hashing.ChordRing
	ids      []hashing.NodeID
	idx      map[hashing.NodeID]int
	table    *hashing.RangeTable // static partition table (reduce placement, FS ownership)
	disks    []*sim.Queue
	launch   []*sim.Queue // per-node serialized task launchers (Hadoop)
	reduce   []*sim.Queue
	net      *sim.FlowNet
	caches   []*cache.LRU
	nameNode *sim.Queue

	pumpAt float64 // earliest already-scheduled pump wake, -1 if none
	rng    *rand.Rand
	// noProactive disables EclipseMR's proactive shuffle (ablation):
	// intermediates are written to the mapper's local disk after compute
	// and pulled by reducers, Hadoop-style.
	noProactive bool
	running     int
	jobs        map[string]*runningJob
	// tr is non-nil after EnableTracing: deterministic per-node span
	// recording on the virtual clock (see tracing.go).
	tr *modelTrace
	// ev is non-nil after EnableEvents: deterministic per-node structured
	// events on the virtual clock (see events.go).
	ev *modelEvents
	// Chaos hook: killAtReduce (armed via KillNodeAtReduceStart) crashes
	// one node at the exact map→reduce boundary of the first job to reach
	// it; dead marks crashed nodes and epoch counts membership changes,
	// mirroring the real manager's view epoch.
	killAtReduce int
	killed       bool
	dead         []bool
	epoch        uint64
}

// NewModel builds a simulated cluster for one framework and policy.
func NewModel(p Params, kind Framework, pol Policy) (*Model, error) {
	p = p.withDefaults()
	s := sim.New()
	m := &Model{
		S:            s,
		p:            p,
		kind:         kind,
		idx:          make(map[hashing.NodeID]int, p.Nodes),
		net:          sim.NewFlowNet(s),
		rng:          rand.New(rand.NewSource(42)),
		pumpAt:       -1,
		killAtReduce: -1,
		jobs:         make(map[string]*runningJob),
	}
	switch kind {
	case Eclipse:
		m.fw = EclipseOverheads
	case Hadoop:
		m.fw = HadoopOverheads
	case Spark:
		m.fw = SparkOverheads
	default:
		return nil, fmt.Errorf("simcluster: unknown framework %q", kind)
	}
	// The Chord ring sits nodes at near-even ring positions (even spacing
	// plus a mild deterministic jitter). Without it, single-token arc skew
	// (up to ln N × the mean) would dominate every experiment and mask the
	// framework effects under study.
	m.ring = hashing.NewChordRing()
	posRng := rand.New(rand.NewSource(7))
	step := float64(1<<63) * 2 / float64(p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		id := hashing.NodeID(fmt.Sprintf("node-%02d", i))
		jitter := (posRng.Float64() - 0.5) * 0.8
		pos := hashing.Key((float64(i) + 0.5 + jitter) * step)
		if err := m.ring.Add(id, pos); err != nil {
			return nil, err
		}
		m.ids = append(m.ids, id)
		m.idx[id] = i
		m.disks = append(m.disks, sim.NewQueue(s, 1))
		launchers := m.fw.SerialLaunch
		if launchers < 1 {
			launchers = 1
		}
		m.launch = append(m.launch, sim.NewQueue(s, launchers))
		m.reduce = append(m.reduce, sim.NewQueue(s, p.ReduceSlots))
		m.caches = append(m.caches, cache.NewLRU(p.CachePerNode))
		m.net.AddResource(nicOut(i), p.NICBandwidth)
		m.net.AddResource(nicIn(i), p.NICBandwidth)
	}
	m.net.AddResource("uplink", p.UplinkBandwidth)
	table, err := m.ring.RangeTable()
	if err != nil {
		return nil, err
	}
	m.table = table

	switch {
	case kind == Hadoop:
		m.sched, err = scheduler.NewFair(m.ring)
		m.nameNode = sim.NewQueue(s, 1)
	case kind == Spark:
		m.sched, err = scheduler.NewDelay(scheduler.DefaultDelayConfig(), m.ring)
		m.nameNode = sim.NewQueue(s, 1)
	case pol.Kind == "delay":
		wait := pol.Wait
		if wait == 0 {
			wait = 5 * time.Second
		}
		m.sched, err = scheduler.NewDelay(scheduler.DelayConfig{Wait: wait}, m.ring)
	default: // LAF
		cfg := scheduler.DefaultLAFConfig()
		cfg.KDE.Alpha = pol.Alpha
		// Keys are recorded at submission, so bursts of queued tasks
		// re-partition immediately regardless of window size; a large
		// window keeps the empirical quantiles stable (±1 node at N=40,
		// within replica reach) instead of jittering with sampling noise.
		cfg.KDE.Window = 2048
		cfg.KDE.Bandwidth = 32
		m.sched, err = scheduler.NewLAF(cfg, m.ring)
	}
	if err != nil {
		return nil, err
	}
	for _, id := range m.ids {
		m.sched.AddNode(id, p.MapSlots)
	}
	return m, nil
}

func nicOut(i int) string { return fmt.Sprintf("out%02d", i) }
func nicIn(i int) string  { return fmt.Sprintf("in%02d", i) }

// rack returns the rack index of node i.
func (m *Model) rack(i int) int { return i / m.p.RackSize }

// route lists the flow resources for a transfer from node a to node b.
func (m *Model) route(a, b int) []string {
	if a == b {
		return nil
	}
	r := []string{nicOut(a), nicIn(b)}
	if m.rack(a) != m.rack(b) {
		r = append(r, "uplink")
	}
	return r
}

// transfer starts a network flow and calls done at completion.
func (m *Model) transfer(size float64, from, to int, done func()) {
	m.net.StartFlow(size, m.route(from, to), done)
}

// allToAll models one endpoint's share of an all-to-all transfer: size
// bytes cross the named NIC, and the half destined for (or arriving
// from) the other rack also crosses the shared uplink. Shuffle traffic
// is symmetric, so per-flow endpoints need no random peers — every NIC
// carries its own aggregate.
func (m *Model) allToAll(nic string, size float64, done func()) {
	crossFrac := 0.5
	if m.p.Nodes <= m.p.RackSize {
		crossFrac = 0 // single rack: no uplink traffic
	}
	pending := 2
	one := func() {
		pending--
		if pending == 0 {
			done()
		}
	}
	m.net.StartFlow(size*(1-crossFrac), []string{nic}, one)
	m.net.StartFlow(size*crossFrac, []string{nic, "uplink"}, one)
}

// diskRead schedules a sequential read on node i's disk.
func (m *Model) diskRead(i int, bytes float64, done func()) {
	m.disks[i].Submit(m.p.DiskSeek+bytes/m.p.DiskBandwidth, done)
}

// diskWrite schedules a sequential write on node i's disk.
func (m *Model) diskWrite(i int, bytes float64, done func()) {
	m.diskRead(i, bytes, done) // same cost model for the single HDD
}

// memRead models an in-memory cache read.
func (m *Model) memRead(bytes float64, done func()) {
	m.S.After(bytes/m.p.MemoryBandwidth, done)
}

// runningJob tracks one simulated job.
type runningJob struct {
	desc      JobDesc
	stats     *JobStats
	blockKeys []hashing.Key
	iteration int
	mapsLeft  int
	reduces   int
	done      func(JobStats)
	// jctx carries the job's root span for task spans to parent under;
	// context.Background() when the model is untraced.
	//lint:ignore ctxflow runningJob is the per-submission state of one simulated job; the virtual clock never blocks, so cancellation has nothing to interrupt
	jctx context.Context
	root *trace.Span
}

// Submit schedules a job at virtual time `at`; done (optional) fires with
// the final stats. Job names must be unique within a model. Call Run
// afterwards to execute the simulation.
func (m *Model) Submit(job JobDesc, at float64, done func(JobStats)) error {
	if err := validateJob(m.p, job); err != nil {
		return err
	}
	if _, dup := m.jobs[job.Name]; dup {
		return fmt.Errorf("simcluster: duplicate job name %q", job.Name)
	}
	if job.Iterations <= 0 {
		job.Iterations = 1
	}
	keys := job.BlockKeys
	if keys == nil {
		blocks := int(job.InputBytes / m.p.BlockSize)
		if blocks < 1 {
			blocks = 1
		}
		keys = workloads.UniformKeys(job.Seed+77, blocks)
	}
	j := &runningJob{
		desc:      job,
		blockKeys: keys,
		stats:     &JobStats{Name: job.Name, Start: at, MapTasks: len(keys) * job.Iterations},
		done:      done,
		//lint:ignore ctxflow the simulator is its own entry point: jobs are born here, on a virtual clock with no caller ctx
		jctx: context.Background(),
	}
	m.jobs[job.Name] = j
	m.S.At(at, func() {
		m.running++
		j.jctx, j.root = m.tr.startRoot(j.jctx, job.Name, "driver.job")
		j.root.Annotate("framework", string(m.kind))
		m.ev.emitDriver(events.KindJob, "job.submit", events.F{Job: job.Name, Detail: string(m.kind)})
		m.S.After(m.fw.JobOverhead, func() { m.startIteration(j) })
	})
	return nil
}

// Run executes the simulation to completion and returns the final time.
func (m *Model) Run() float64 { return m.S.Run() }

// startIteration submits one iteration's map tasks to the scheduler.
func (m *Model) startIteration(j *runningJob) {
	j.mapsLeft = len(j.blockKeys)
	m.ev.emitDriver(events.KindJob, "job.phase.map", events.F{
		Job: j.desc.Name, Detail: fmt.Sprintf("tasks=%d", len(j.blockKeys)),
	})
	now := sim.Duration(m.S.Now())
	for i, k := range j.blockKeys {
		m.sched.Submit(scheduler.Task{
			Job:     j.desc.Name,
			ID:      fmt.Sprintf("%s/%d/%d", j.desc.Name, j.iteration, i),
			HashKey: k,
		}, now)
	}
	m.pump()
}

// pump dispatches every assignable task and arranges a wake-up for the
// delay scheduler's earliest deadline.
func (m *Model) pump() {
	for {
		as := m.sched.Dispatch(sim.Duration(m.S.Now()))
		if len(as) == 0 {
			break
		}
		for _, a := range as {
			m.startMapTask(a)
		}
	}
	// Arrange a wake-up only for a *future* delay deadline: a task whose
	// wait has already expired was considered by Dispatch above, and can
	// only proceed when a slot frees — and every slot release re-pumps.
	if dl, ok := m.sched.NextDeadline(); ok {
		at := sim.Seconds(dl)
		if at > m.S.Now() && (m.pumpAt < 0 || at < m.pumpAt-1e-9) {
			m.pumpAt = at
			m.S.At(at, func() {
				m.pumpAt = -1
				m.pump()
			})
		}
	}
}

// jobOf resolves the running job a task belongs to.
var errUnknownJob = fmt.Errorf("simcluster: task for unknown job")

// startMapTask executes one map task on its assigned node:
//
//	slot overhead → (NameNode lookup) → input acquisition
//	(cache | local disk | remote disk + network) → compute ∥ shuffle
//
// For EclipseMR the shuffle is proactive: the aggregate spill flow runs
// concurrently with map compute, and the task completes when both are
// done (§II-D). Hadoop and Spark write intermediate output to the local
// disk after compute, and move it across the network during the reduce
// phase instead.
func (m *Model) startMapTask(a scheduler.Assignment) {
	j := m.jobs[a.Task.Job]
	if j == nil {
		panic(errUnknownJob)
	}
	n := m.idx[a.Node]
	blockBytes := float64(m.p.BlockSize)
	if len(j.blockKeys) > 0 && j.desc.InputBytes > 0 {
		blockBytes = float64(j.desc.InputBytes) / float64(len(j.blockKeys))
	}
	overhead := m.fw.TaskOverhead
	if a.Waited > 0 {
		// The wait began a.Waited of virtual time ago; reconstruct it as
		// a child of the job root so the timeline shows where scheduling
		// (not execution) spent the time.
		_, qs := m.tr.startSpanAt(n, j.jctx, "sched.queue_wait", m.tr.nowNS(n)-int64(a.Waited))
		qs.Annotate("task", a.Task.ID)
		qs.End()
	}
	// task is assigned when the slot overhead completes (inside begin);
	// declared here so finish, defined first, can end it.
	tctx := j.jctx
	var task *trace.Span

	acquire := func(cont func(fromCache bool)) {
		_, rd := m.tr.startSpan(n, tctx, "map.read")
		key := cache.BlockKey(a.Task.HashKey)
		useCache := m.kind == Eclipse || (m.kind == Spark && j.desc.App.Iterative)
		inner := cont
		cont = func(fromCache bool) {
			if useCache {
				v := "miss"
				if fromCache {
					v = "hit"
				}
				rd.Annotate("cache", v)
			}
			rd.End()
			inner(fromCache)
		}
		if useCache {
			if _, ok := m.caches[n].Get(key); ok {
				j.stats.CacheHits++
				m.memRead(blockBytes, func() { cont(true) })
				return
			}
			j.stats.CacheMiss++
		}
		j.stats.BytesRead += int64(blockBytes)
		insert := func() {
			if useCache {
				m.caches[n].Put(cache.Entry{Key: key, HashKey: a.Task.HashKey, Size: int64(blockBytes)})
			}
			cont(false)
		}
		readService := m.p.DiskSeek + blockBytes/m.p.DiskBandwidth
		if m.kind != Eclipse {
			// HDFS with locality scheduling: the read is node-local, after
			// a central NameNode lookup.
			j.stats.ReadSeconds += readService
			m.nameNode.Submit(m.fw.NameNodeLookup, func() {
				m.diskRead(n, blockBytes, insert)
			})
			return
		}
		// DHT FS: the block lives at its hash-key owner and is replicated
		// on the owner's ring predecessor and successor (§II-A). A task
		// whose node holds any replica reads locally — this is how mildly
		// misaligned cache ranges "avoid remote disk IOs" (§II-E); only
		// a seriously misaligned or migrated task reads remotely.
		owner := m.idx[m.table.Lookup(a.Task.HashKey)]
		local := false
		for r := -(m.p.Replicas - 1) / 2; r <= m.p.Replicas/2; r++ {
			if (owner+r+m.p.Nodes)%m.p.Nodes == n {
				local = true
				break
			}
		}
		if local {
			j.stats.ReadSeconds += readService
			m.diskRead(n, blockBytes, insert)
			return
		}
		j.stats.ReadSeconds += readService + blockBytes/m.p.NICBandwidth
		m.diskRead(owner, blockBytes, func() {
			m.transfer(blockBytes, owner, n, insert)
		})
	}

	baseCompute := blockBytes * j.desc.App.MapCost * m.fw.ComputeFactor
	baseCompute += blockBytes * j.desc.App.ShuffleRatio * m.fw.ShuffleByteCost
	if m.kind == Spark && j.desc.App.Iterative && j.iteration == 0 {
		baseCompute *= 1.5 // RDD construction on the first iteration
	}
	shuffleBytes := blockBytes * j.desc.App.ShuffleRatio

	finish := func() {
		task.End()
		m.ev.emit(n, events.KindTask, "map.finish", events.F{Job: j.desc.Name, Task: a.Task.ID})
		m.sched.Release(a.Node)
		j.mapsLeft--
		if j.mapsLeft == 0 {
			m.startReducePhase(j)
		}
		m.pump()
	}

	begin := func(fn func()) {
		if m.fw.SerialLaunch > 0 {
			m.launch[n].Submit(overhead, fn)
			return
		}
		m.S.After(overhead, fn)
	}
	begin(func() {
		tctx, task = m.tr.startSpan(n, j.jctx, "task.map")
		task.Annotate("task", a.Task.ID)
		m.ev.emit(n, events.KindTask, "map.dispatch", events.F{Job: j.desc.Name, Task: a.Task.ID})
		acquire(func(fromCache bool) {
			compute := baseCompute
			if !fromCache {
				// Deserialization cost applies only to storage reads; a
				// cached partition is already in object form.
				compute += blockBytes * m.fw.IOByteCost
			}
			_, comp := m.tr.startSpan(n, tctx, "map.compute")
			if m.kind == Eclipse && !m.noProactive {
				// Proactive shuffle: compute and the spill transfer overlap;
				// the spill is one aggregate flow to a rotating partition
				// owner (a deterministic stand-in for the per-range spill
				// streams) followed by the reducer-side disk write.
				pending := 2
				part := func() {
					pending--
					if pending == 0 {
						finish()
					}
				}
				m.S.After(compute, func() {
					comp.End()
					part()
				})
				if shuffleBytes < 1 {
					part()
				} else {
					// The spill fans out to every partition owner; the
					// reducer-side disk write is charged at a symmetric
					// stand-in (this node), keeping total disk work and
					// balance identical without random peers.
					_, sh := m.tr.startSpan(n, tctx, "shuffle.send")
					m.allToAll(nicOut(n), shuffleBytes, func() {
						m.diskWrite(n, shuffleBytes, func() {
							sh.End()
							part()
						})
					})
				}
				return
			}
			// Hadoop/Spark: compute, then write intermediate output to the
			// local disk. Spark keeps small shuffles and *iterative* RDD-
			// to-RDD shuffles in memory ("Spark does not store the
			// intermediate outputs in file systems", §III-E); its on-disk
			// sort-based shuffle pays a second spill-merge pass.
			m.S.After(compute, func() {
				comp.End()
				memShuffle := m.kind == Spark && (j.desc.App.Iterative || shuffleBytes < 64<<20)
				if shuffleBytes < 1 || memShuffle {
					finish()
					return
				}
				m.diskWrite(n, shuffleBytes, func() {
					if m.fw.DoubleSpill {
						m.diskWrite(n, shuffleBytes, finish)
						return
					}
					finish()
				})
			})
		})
	})
}

// KillNodeAtReduceStart arms the chaos hook: the given node crashes at
// the exact map→reduce boundary of the first job (or iteration) to
// reach it. Detection is modeled as immediate — the boundary is the
// deterministic instant — and recovery follows the real engine's shape:
// the victim leaves the membership (member.suspect, member.evict, epoch
// bump), its reduce partition re-homes to its ring successor
// (partition.rehome, job.recovery), and the new owner pulls the
// partition's proactively delivered segments from the surviving
// replica over the network instead of reading its own disk.
func (m *Model) KillNodeAtReduceStart(node int) error {
	if node < 0 || node >= m.p.Nodes {
		return fmt.Errorf("simcluster: kill node %d out of range [0,%d)", node, m.p.Nodes)
	}
	m.killAtReduce = node
	return nil
}

// execKill crashes the armed victim (once) at the map→reduce boundary.
func (m *Model) execKill() {
	if m.killAtReduce < 0 || m.killed {
		return
	}
	m.killed = true
	victim := m.killAtReduce
	vid := m.ids[victim]
	m.dead = make([]bool, m.p.Nodes)
	m.dead[victim] = true
	m.epoch++
	m.sched.RemoveNode(vid)
	// Cluster-scoped (no job): membership changes outlive any one job,
	// exactly as the real manager emits them.
	m.ev.emitDriver(events.KindMembership, "member.suspect", events.F{Detail: string(vid)})
	m.ev.emitDriver(events.KindMembership, "member.evict", events.F{Detail: string(vid)})
}

// liveSuccessor walks the ring clockwise from i to the first live node.
func (m *Model) liveSuccessor(i int) int {
	for d := 1; d < m.p.Nodes; d++ {
		if k := (i + d) % m.p.Nodes; !m.dead[k] {
			return k
		}
	}
	return i
}

// livePredecessor walks the ring counter-clockwise from i to the first
// live node — the surviving replica of i's partition data.
func (m *Model) livePredecessor(i int) int {
	for d := 1; d < m.p.Nodes; d++ {
		if k := (i - d + m.p.Nodes) % m.p.Nodes; !m.dead[k] {
			return k
		}
	}
	return i
}

// startReducePhase runs one reduce task per node (partition), then
// finishes the iteration. Partitions of crashed nodes re-home to their
// ring successor, which pulls the data from the surviving replica.
func (m *Model) startReducePhase(j *runningJob) {
	m.execKill()
	totalShuffle := float64(j.desc.InputBytes) * j.desc.App.ShuffleRatio
	outRatio := j.desc.App.OutputRatio
	isLastIter := j.iteration == j.desc.Iterations-1
	if j.desc.App.Iterative {
		outRatio = j.desc.App.IterOutputRatio
	}
	totalOut := float64(j.desc.InputBytes) * outRatio
	// Spark keeps iteration outputs in memory; only the final iteration's
	// output reaches storage (§III-E/F: Spark's last page rank iteration
	// is slower because it writes final outputs to disk).
	writeOutput := true
	if m.kind == Spark && j.desc.App.Iterative && !isLastIter {
		writeOutput = false
	}

	m.ev.emitDriver(events.KindJob, "job.phase.reduce", events.F{
		Job: j.desc.Name, Detail: fmt.Sprintf("parts=%d", m.p.Nodes),
	})
	j.reduces = m.p.Nodes
	part := totalShuffle / float64(m.p.Nodes)
	outPart := totalOut / float64(m.p.Nodes)
	rehomed := 0
	for i := 0; i < m.p.Nodes; i++ {
		node, pullFrom := i, -1
		if m.dead != nil && m.dead[i] {
			node = m.liveSuccessor(i)
			pullFrom = m.livePredecessor(i)
			rehomed++
			m.ev.emitDriver(events.KindTask, "partition.rehome", events.F{
				Job: j.desc.Name, Task: fmt.Sprintf("part-%02d", i), Detail: string(m.ids[node]),
			})
		}
		m.ev.emitDriver(events.KindTask, "reduce.dispatch", events.F{
			Job: j.desc.Name, Task: fmt.Sprintf("part-%02d", i), Detail: string(m.ids[node]),
		})
		partIdx, node, pull := i, node, pullFrom
		m.reduce[node].Submit(m.fw.TaskOverhead, func() {
			m.runReduceTask(j, partIdx, node, part, outPart, writeOutput, pull)
		})
	}
	if rehomed > 0 {
		m.ev.emitDriver(events.KindJob, "job.recovery", events.F{
			Job: j.desc.Name, Detail: fmt.Sprintf("partitions=%d", rehomed),
		})
	}
}

// runReduceTask executes one reduce partition on its node. pullFrom >= 0
// marks a re-homed partition: the data is read from that surviving
// replica's disk and crosses the network instead of a local read.
func (m *Model) runReduceTask(j *runningJob, partIdx, node int, shufflePart, outPart float64, writeOutput bool, pullFrom int) {
	compute := shufflePart * (j.desc.App.ReduceCost*m.fw.ComputeFactor + m.fw.ShuffleByteCost)
	tctx, task := m.tr.startSpan(node, j.jctx, "task.reduce")
	task.Annotate("partition", strconv.Itoa(partIdx))
	// recv covers gathering the partition (local read of proactively
	// delivered segments, or the pull shuffle) up to compute start.
	var recv *trace.Span

	finish := func() {
		recv.End()
		_, comp := m.tr.startSpan(node, tctx, "reduce.compute")
		m.S.After(compute, func() {
			comp.End()
			write := func(done func()) {
				if !writeOutput || outPart < 1 {
					done()
					return
				}
				_, wr := m.tr.startSpan(node, tctx, "reduce.write")
				wrapped := done
				done = func() {
					wr.End()
					wrapped()
				}
				// Local write plus (Replicas-1) remote copies.
				pending := m.p.Replicas
				one := func() {
					pending--
					if pending == 0 {
						done()
					}
				}
				m.diskWrite(node, outPart, one)
				for r := 1; r < m.p.Replicas; r++ {
					dst := (node + r) % m.p.Nodes
					m.transfer(outPart, node, dst, func() { m.diskWrite(dst, outPart, one) })
				}
			}
			write(func() {
				task.End()
				m.ev.emit(node, events.KindTask, "reduce.finish", events.F{
					Job: j.desc.Name, Task: fmt.Sprintf("part-%02d", partIdx),
				})
				m.reduceDone(j)
			})
		})
	}

	if shufflePart < 1 {
		finish()
		return
	}
	_, recv = m.tr.startSpan(node, tctx, "shuffle.recv")
	if m.kind == Eclipse && !m.noProactive {
		if pullFrom >= 0 {
			// Recovery pull: the re-homed partition's segments live on the
			// surviving replica, not this node — one remote disk read plus
			// a network transfer replaces the local read.
			recv.Annotate("recovered", "true")
			m.diskRead(pullFrom, shufflePart, func() {
				m.transfer(shufflePart, pullFrom, node, finish)
			})
			return
		}
		// Proactive shuffle already delivered the partition locally.
		m.diskRead(node, shufflePart, finish)
		return
	}
	if m.kind == Eclipse {
		// Ablation: pull shuffle without the merge-sort pass.
		m.diskRead(node, shufflePart, func() {
			m.allToAll(nicIn(node), shufflePart, finish)
		})
		return
	}
	// Pull shuffle: the partition arrives all-to-all through this
	// reducer's NIC; the distributed source-disk reads are approximated
	// by an equal local disk pass (total disk work and balance are the
	// same). Spark's iterative shuffles move memory-to-memory; its
	// non-iterative sort shuffle and Hadoop's merge sort pay disk passes
	// on the reduce side too.
	if m.kind == Spark && j.desc.App.Iterative {
		m.allToAll(nicIn(node), shufflePart, finish)
		return
	}
	m.diskRead(node, shufflePart, func() {
		m.allToAll(nicIn(node), shufflePart, func() {
			m.diskWrite(node, shufflePart, func() {
				m.diskRead(node, shufflePart, finish)
			})
		})
	})
}

// reduceDone accounts one reduce completion and advances the iteration.
func (m *Model) reduceDone(j *runningJob) {
	j.reduces--
	if j.reduces > 0 {
		return
	}
	j.stats.IterationFinish = append(j.stats.IterationFinish, m.S.Now())
	j.iteration++
	if j.iteration < j.desc.Iterations {
		m.startIteration(j)
		return
	}
	j.stats.Finish = m.S.Now()
	j.root.Annotate("map_tasks", strconv.Itoa(j.stats.MapTasks))
	j.root.End()
	m.ev.emitDriver(events.KindJob, "job.done", events.F{Job: j.desc.Name})
	m.running--
	if j.done != nil {
		j.done(*j.stats)
	}
}
