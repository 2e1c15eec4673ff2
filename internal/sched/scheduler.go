// Package sched implements HolDCSim's global scheduling module (paper
// Sec. III-E) and the power-management policies of the case studies
// (Sec. IV): round-robin and load-balancing placement, the optional
// global task queue, the threshold-based resource provisioner (IV-A),
// the single and dual delay-timer strategies (IV-B), the workload
// adaptive dual-pool framework (IV-C), and the server-network-aware
// placement policy (IV-D).
package sched

import (
	"fmt"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/network"
	"holdcsim/internal/server"
	"holdcsim/internal/topology"
)

// TransferFn moves bytes between two servers' hosts, invoking done when
// the data has fully arrived (the network layer provides this; a nil
// TransferFn makes transfers instantaneous).
type TransferFn func(fromServer, toServer int, bytes int64, done func())

// Placer chooses a server for a ready task. A policy is this one value;
// what else it needs it gets by also implementing Controller, Starter or
// Binder, which New (core.Build for Binder) finds by type assertion.
type Placer interface {
	// Place returns the chosen server among candidates (never empty).
	Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server
	Name() string
}

// Controller is implemented by placers that drive pool transitions,
// provisioning, etc. Evaluate runs at every job arrival, before the
// job's tasks are placed, and after every task completion.
type Controller interface {
	Evaluate(s *Scheduler)
}

// Starter is implemented by placers with one-shot set-up against the
// farm (pool membership, delay timers). Start runs once, at the first
// arrival's timestamp, before its Evaluate and any placement — not
// at New, where an armed delay timer would expire before the first job.
type Starter interface {
	Start(s *Scheduler)
}

// Binder is implemented by placers that read live network state
// (Server-Network-Aware, Sec. IV-D). core.Build calls Bind once the
// network exists; hosts[i] is the topology node of server i.
type Binder interface {
	Bind(net *network.Network, hosts []topology.NodeID)
}

// Config assembles a scheduler.
type Config struct {
	// Placer is the policy; nil means LeastLoaded.
	Placer Placer
	// UseGlobalQueue parks ready tasks centrally when no alive server
	// has a spare execution slot; servers pull work as they drain
	// (Sec. III-E's "global task queue" mode).
	UseGlobalQueue bool
	// Transfer carries DAG edge data between servers; nil = instant.
	Transfer TransferFn
	// Orphans selects the fault policy for tasks stranded by server
	// crashes (fault model). The zero value requeues.
	Orphans OrphanPolicy
}

// Scheduler is the data center's global scheduler: it receives jobs from
// the front end, statically assigns their tasks to servers, launches
// inter-task data transfers as dependencies resolve, and reports job
// completions.
type Scheduler struct {
	eng     *engine.Engine
	servers []*server.Server
	cfg     Config

	// What the placer implements beyond Place; starter is cleared once run.
	ctrl    Controller
	starter Starter

	// committed counts tasks placed on each server that have not yet
	// finished — including DAG tasks still waiting on parents or data
	// transfers, which the server's own PendingTasks cannot see. All
	// mutations go through commit so the trees below stay in sync.
	committed []int

	// loads is a winner tree over committed, so loads.node[1] is the
	// least-loaded server of the whole farm. Its nodes stay nil until a
	// placer first asks for that argmin (leastLoaded): round-robin and
	// sharded runs never pay for it.
	loads winnerTree

	// Candidate-set sharding (SetShards): shardOf maps each server to its
	// shard (rack/pod/block); shards is a winner tree whose keys are the
	// per-shard sums of committed; shardMembers lists each shard's
	// servers in ID order. Nil shardOf = sharding off, zero cost.
	shardOf      []int32
	shards       winnerTree
	shardMembers [][]*server.Server

	globalQ []*job.Task

	// Observation-only subscriber lists. Nil slices cost one empty range
	// per event, so an unobserved scheduler pays nothing (the invariant
	// checker and metrics collection attach here).
	onJobArrived []func(*job.Job)
	onJobDone    []func(*job.Job)
	onDispatch   []func(*server.Server, *job.Task)
	onJobLost    []func(*job.Job, LostReason)

	// rrNext is shared iteration state for the round-robin placer.
	rrNext int

	// Fault state (internal/fault drives it via ServersCrashed and
	// ServersRecovered). downCount gates every fault-aware branch: while
	// it is zero — every healthy run — placement takes exactly the
	// pre-fault path with no filtering and no allocation.
	downCount    int
	aliveScratch []*server.Server
	parked       []*job.Task // ready tasks waiting for a recovery

	jobsInSystem   int
	jobsDispatched int64
	jobsCompleted  int64
	jobsLost       int64
	tasksAborted   int64

	// cover, when non-nil, receives placement-path, queue-depth, and
	// orphan-policy coverage features (modelcov; recording only).
	cover *modelcov.Map
}

// SetCover attaches a model-state coverage map recording placement
// paths, queue-depth buckets, and orphan-policy branches. Pass nil to
// detach. Coverage recording never alters scheduling decisions.
func (s *Scheduler) SetCover(m *modelcov.Map) { s.cover = m }

// New wires a scheduler to the servers. Server completion callbacks are
// claimed by the scheduler (OnTaskDone must not be overridden afterward).
func New(eng *engine.Engine, servers []*server.Server, cfg Config) (*Scheduler, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("sched: no servers")
	}
	if cfg.Placer == nil {
		cfg.Placer = LeastLoaded{}
	}
	s := &Scheduler{
		eng:       eng,
		servers:   servers,
		cfg:       cfg,
		committed: make([]int, len(servers)),
	}
	s.ctrl, _ = cfg.Placer.(Controller)
	s.starter, _ = cfg.Placer.(Starter)
	for _, srv := range servers {
		srv.OnTaskDone(s.taskDone)
	}
	return s, nil
}

// OnJobDone subscribes a job-completion callback (metrics collection,
// invariant probes). Subscribers run in registration order. The
// *job.Job and its tasks are valid until the event that finished the
// job returns: after that the simulation may recycle them into a later
// arrival (workload.Generator.Recycle), so a subscriber copies what it
// wants to keep — an ID, a sojourn — rather than the pointer.
func (s *Scheduler) OnJobDone(fn func(*job.Job)) { s.onJobDone = append(s.onJobDone, fn) }

// OnJobArrived subscribes a job-admission callback, invoked after the
// job is counted in-system but before any task is placed.
func (s *Scheduler) OnJobArrived(fn func(*job.Job)) {
	s.onJobArrived = append(s.onJobArrived, fn)
}

// OnDispatch subscribes a task-dispatch callback, invoked for every task
// handed to a server (request-traffic hooks, invariant probes, tracing).
// Subscribers run in registration order: core.Build attaches the
// invariant checker, so a callback subscribed on a built data center
// runs after the checker's per-dispatch scan.
func (s *Scheduler) OnDispatch(fn func(*server.Server, *job.Task)) {
	s.onDispatch = append(s.onDispatch, fn)
}

// JobsInSystem reports jobs admitted but not yet completed — the load
// estimator signal of Sec. IV-C.
func (s *Scheduler) JobsInSystem() int { return s.jobsInSystem }

// JobsCompleted reports finished jobs.
func (s *Scheduler) JobsCompleted() int64 { return s.jobsCompleted }

// GlobalQueueLen reports tasks parked in the global queue.
func (s *Scheduler) GlobalQueueLen() int { return len(s.globalQ) }

// TasksDispatched reports tasks submitted to servers so far.
func (s *Scheduler) TasksDispatched() int64 { return s.jobsDispatched }

// Committed reports the committed-task counter for one server — placed
// but not yet finished. It is the Load signal; the invariant checker
// reads it to hold the server's own pending count beneath it.
func (s *Scheduler) Committed(serverID int) int { return s.committed[serverID] }

// commit is the single mutation point for the committed counters: it
// applies delta to server id and replays the load tree (once built) and
// the shard sums' tree (when sharding is on), O(log N) each. Decrements
// clamp at zero (fault paths can release a commitment that a crash
// already zeroed), in which case nothing else moves either.
func (s *Scheduler) commit(id, delta int) {
	if delta < 0 && s.committed[id] <= 0 {
		return
	}
	s.committed[id] += delta
	if s.loads.node != nil {
		s.loads.fix(id)
	}
	if s.shardOf != nil {
		sh := int(s.shardOf[id])
		s.shards.key[sh] += delta
		s.shards.fix(sh)
	}
}

// SetShards partitions the farm into placement shards — rack- or
// pod-sized candidate subsets. shardOf maps each server ID to its shard
// in [0, n), and every shard needs at least one server. The
// ShardedLeastLoaded placer then reads the least-committed shard off a
// winner tree in O(1) and scans only its members, with O(log shards)
// bookkeeping per commitment. Sharding is bookkeeping only: placers that
// ignore it behave exactly as before. Passing nil shardOf disables
// sharding.
func (s *Scheduler) SetShards(shardOf []int32, n int) error {
	if shardOf == nil {
		s.shardOf, s.shards, s.shardMembers = nil, winnerTree{}, nil
		return nil
	}
	if len(shardOf) != len(s.servers) {
		return fmt.Errorf("sched: %d shard assignments for %d servers", len(shardOf), len(s.servers))
	}
	if n <= 0 {
		return fmt.Errorf("sched: shard count %d", n)
	}
	load := make([]int, n)
	members := make([][]*server.Server, n)
	counts := make([]int, n)
	for id, sh := range shardOf {
		if sh < 0 || int(sh) >= n {
			return fmt.Errorf("sched: server %d assigned to shard %d of %d", id, sh, n)
		}
		counts[sh]++
		load[sh] += s.committed[id]
	}
	for sh, c := range counts {
		if c == 0 {
			return fmt.Errorf("sched: shard %d of %d has no servers", sh, n)
		}
		members[sh] = make([]*server.Server, 0, c)
	}
	for id, sh := range shardOf {
		members[sh] = append(members[sh], s.servers[id])
	}
	s.shardOf, s.shards, s.shardMembers = shardOf, newWinnerTree(load), members
	return nil
}

// BlockShards builds a synthetic contiguous-block shard map: servers
// [0,size) form shard 0, [size,2*size) shard 1, and so on — the fallback
// when no topology is attached. It returns the map and the shard count.
func BlockShards(nServers, size int) ([]int32, int) {
	if size <= 0 {
		size = 1
	}
	out := make([]int32, nServers)
	for i := range out {
		out[i] = int32(i / size)
	}
	return out, (nServers + size - 1) / size
}

// LoadPerServer reports jobs in system divided by the candidate pool
// size (the provisioning and adaptive policies' load metric).
func (s *Scheduler) LoadPerServer(poolSize int) float64 {
	if poolSize <= 0 {
		return 0
	}
	return float64(s.jobsInSystem) / float64(poolSize)
}

// Load reports the placement-time load signal for a server: its
// committed tasks, placed and not yet finished. Every task a server
// holds was committed first (the checker's pending-within-commitment
// law), so this counts the server's own pending tasks plus statically
// placed DAG tasks that have not been submitted yet.
func (s *Scheduler) Load(srv *server.Server) int { return s.committed[srv.ID()] }

// startPolicy runs the placer's Start hook if it has not run yet.
func (s *Scheduler) startPolicy() {
	if st := s.starter; st != nil {
		s.starter = nil
		st.Start(s)
	}
}

// JobArrived admits a job: every task is placed (static DAG placement,
// Sec. IV-D), root tasks are dispatched, and the controller is notified.
func (s *Scheduler) JobArrived(j *job.Job) {
	s.jobsInSystem++
	for _, fn := range s.onJobArrived {
		fn(j)
	}
	s.startPolicy()
	if s.ctrl != nil {
		s.ctrl.Evaluate(s)
	}
	order, err := j.TopoOrder() // the order Seal kept: nothing is sorted here
	if err != nil {
		panic(err) // factories always produce DAGs
	}
	for _, t := range order {
		t.ServerID = -1
	}
	for _, t := range order {
		if j.Lost() {
			// Admitting a root with every server down under OrphanDrop
			// retracts the job; the remaining tasks are already lost.
			return
		}
		if t.IsRoot() {
			s.admitReady(t)
		} else {
			// Non-root tasks get their static placement now; they are
			// submitted when their inputs arrive. With no alive server
			// the placement is deferred to readiness.
			if err := s.place(t); err != nil {
				t.ServerID = -1
			}
		}
	}
}

// admitReady routes a ready task: global queue when enabled and no slot
// is free, else place and submit. A task whose static placement died in
// the meantime is re-placed; with no alive server the orphan policy
// parks or drops it.
func (s *Scheduler) admitReady(t *job.Task) {
	if t.Job.Lost() {
		return // a late transfer resolved a dependency of a retracted job
	}
	if s.cfg.UseGlobalQueue {
		if srv := s.availableServer(); srv != nil {
			t.ServerID = srv.ID()
			s.commit(srv.ID(), 1)
			s.cover.Hit(modelcov.PlaceGlobalQDirect)
			s.submit(srv, t)
		} else {
			// Depth observed before the append: bucket 0 is "parked into
			// an empty queue", the common backlog-forming case.
			s.cover.Hit(modelcov.GlobalQueueDepth(len(s.globalQ)))
			s.globalQ = append(s.globalQ, t)
			s.cover.Hit(modelcov.PlaceGlobalQPark)
		}
		return
	}
	if t.ServerID >= 0 && s.downCount > 0 && s.servers[t.ServerID].Failed() {
		// Statically placed on a server that crashed before dispatch.
		s.cover.Hit(modelcov.SchedStaticReplace)
		s.commit(t.ServerID, -1)
		t.ServerID = -1
	}
	if t.ServerID < 0 {
		if err := s.place(t); err != nil {
			s.handleUnplaceable(t)
			return
		}
	}
	s.submit(s.servers[t.ServerID], t)
}

// place records the placer's static decision on the task. It returns an
// *AllDownError when no server is alive.
func (s *Scheduler) place(t *job.Task) error {
	srv, err := s.Select(t)
	if err != nil {
		return err
	}
	t.ServerID = srv.ID()
	s.commit(srv.ID(), 1)
	return nil
}

// availableServer finds an alive server with a spare execution slot
// (global-queue mode's "servers available at that time").
func (s *Scheduler) availableServer() *server.Server {
	return s.leastLoaded(s.servers, func(srv *server.Server) bool {
		return !(s.downCount > 0 && srv.Failed()) && s.Load(srv) < srv.Cores()
	})
}

// submit hands the task to the server's local scheduler.
func (s *Scheduler) submit(srv *server.Server, t *job.Task) {
	s.jobsDispatched++
	s.cover.Hit(modelcov.QueueDepth(srv.PendingTasks()))
	for _, fn := range s.onDispatch {
		fn(srv, t)
	}
	srv.Submit(t)
}

// taskDone is the server completion callback: it resolves DAG edges,
// launches data transfers, completes jobs, and drains the global queue.
func (s *Scheduler) taskDone(srv *server.Server, t *job.Task) {
	now := s.eng.Now()
	if t.ServerID >= 0 {
		s.commit(t.ServerID, -1)
	}
	j := t.Job
	if j.TaskFinished(t, now) {
		s.jobsInSystem--
		s.jobsCompleted++
		for _, fn := range s.onJobDone {
			fn(j)
		}
	}
	// Push outputs toward dependent tasks.
	for _, e := range t.Out {
		edge := e
		deliver := func() {
			if edge.To.State == job.TaskLost {
				return // the dependent's job was retracted mid-transfer
			}
			if edge.To.SatisfyDep() {
				edge.To.State = job.TaskReady
				s.admitReady(edge.To)
			}
		}
		if s.cfg.Transfer == nil || edge.Bytes == 0 || edge.To.ServerID == t.ServerID {
			// Same server or no network: results are local. Deliver via
			// the event queue to keep ordering deterministic.
			s.eng.After(0, deliver)
		} else {
			dst := edge.To.ServerID
			if dst < 0 {
				// Destination unknown until dispatch — global-queue mode,
				// or a placement deferred because every server was down
				// at admission. The transfer cannot be routed yet; model
				// it by delivering the dependency now (the network
				// latency and energy of this edge are not charged).
				s.cover.Hit(modelcov.SchedDeferredPlace)
				s.eng.After(0, deliver)
			} else {
				s.cfg.Transfer(t.ServerID, dst, edge.Bytes, deliver)
			}
		}
	}
	if s.ctrl != nil {
		s.ctrl.Evaluate(s)
	}
	s.drainGlobalQueue()
}

// drainGlobalQueue dispatches parked tasks to servers that freed up.
func (s *Scheduler) drainGlobalQueue() {
	if !s.cfg.UseGlobalQueue || len(s.globalQ) == 0 {
		return
	}
	remaining := s.globalQ[:0]
	for _, t := range s.globalQ {
		if srv := s.availableServer(); srv != nil {
			t.ServerID = srv.ID()
			s.cover.Hit(modelcov.PlaceGlobalQDrain)
			// Symmetric with admitReady's global-queue path: every
			// dispatched task holds one commitment, so taskDone's
			// decrement — and the crash path's per-orphan decommit —
			// release exactly what was taken.
			s.commit(srv.ID(), 1)
			s.submit(srv, t)
		} else {
			remaining = append(remaining, t)
		}
	}
	s.globalQ = remaining
}
