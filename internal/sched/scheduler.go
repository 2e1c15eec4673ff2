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
	// Place returns the chosen server. Select calls it only while some
	// server is up; a nil or crashed answer falls back to the lowest-ID
	// alive server.
	Place(s *Scheduler, t *job.Task) *server.Server
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
	farm    *server.Farm
	servers []*server.Server
	cfg     Config

	// What the placer implements beyond Place; starter is cleared once run.
	ctrl    Controller
	starter Starter

	// committed counts tasks placed on each server that have not yet
	// finished — including DAG tasks still waiting on parents or data
	// transfers, which the server's own PendingTasks cannot see. All
	// mutations go through commit.
	committed []int

	// The placement indexes below are each a key per server and a
	// structure over the keys, built on a placer's first ask; reindex
	// keeps every built one current.

	// loads is a winner tree keyed by committed, or by keyedOut for a
	// crashed server, so loads.node[1] is the least-loaded alive server.
	// It stays empty until a placer first asks for that argmin
	// (leastLoaded): round-robin and sharded runs never pay for it.
	loads winnerTree

	// lv files the alive servers with a spare slot by committed count
	// (availableServer, DualTimer, pack); empty until one of them asks.
	lv levels

	// pool is the pool policy's active set, once it has started: its
	// per-side trees are keyed by committed, as loads is, on a server's
	// own side.
	pool *pool

	// Candidate-set sharding (SetShards): shardOf maps each server to its
	// shard (rack/pod/block); shards is a winner tree whose keys are the
	// per-shard sums of committed; shardMembers lists each shard's
	// server IDs in order. Nil shardOf = sharding off, zero cost.
	shardOf      []int32
	shards       winnerTree
	shardMembers [][]int32

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
	// ServersRecovered): the crashed servers as an ID set, made at the
	// first crash, and their count. Placement reads the same indexes
	// whether or not a server is down; alive counts past down's members.
	down      idset
	downCount int
	parked    []*job.Task // ready tasks waiting for a recovery

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

// New wires a scheduler to the servers, which must all belong to one
// farm: the scheduler subscribes to its task completions first, so its
// DAG and job bookkeeping runs before any other subscriber's.
// servers[i] must have ID i: the scheduler's per-server state, its load
// tree and its shards are indexed by ID.
func New(eng *engine.Engine, servers []*server.Server, cfg Config) (*Scheduler, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("sched: no servers")
	}
	farm := servers[0].Farm()
	for i, srv := range servers {
		if srv.ID() != i {
			return nil, fmt.Errorf("sched: server %d has ID %d; IDs must run 0..%d in order", i, srv.ID(), len(servers)-1)
		}
		if srv.Farm() != farm {
			return nil, fmt.Errorf("sched: server %d is not in server 0's farm", i)
		}
	}
	if cfg.Placer == nil {
		cfg.Placer = LeastLoaded{}
	}
	s := &Scheduler{
		eng:       eng,
		farm:      farm,
		servers:   servers,
		cfg:       cfg,
		committed: make([]int, len(servers)),
	}
	s.ctrl, _ = cfg.Placer.(Controller)
	s.starter, _ = cfg.Placer.(Starter)
	farm.OnTaskDone(s.taskDone)
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
// but not yet finished. It is the load signal every placement index
// keys by; the invariant checker reads it to hold the server's own
// pending count beneath it.
func (s *Scheduler) Committed(serverID int) int { return s.committed[serverID] }

// commit is the single mutation point for the committed counters: it
// applies delta to server id, moves its shard's sum (sharding on), and
// reindexes it. Decrements clamp at zero (fault paths can release a
// commitment that a crash already zeroed), in which case nothing else
// moves either.
func (s *Scheduler) commit(id, delta int) {
	if delta < 0 && s.committed[id] <= 0 {
		return
	}
	s.committed[id] += delta
	if s.shardOf != nil {
		sh := int(s.shardOf[id])
		s.shards.set(sh, s.shards.key[sh]+delta)
	}
	s.reindex(id)
}

// reindex files server id afresh in every index built so far — the load
// levels (level), the load tree (loadKey) and the pool sides (pool.fix)
// — from its committed count and its liveness. Each change to one of the
// two calls it once the change is made: commit, and the crash and
// recover paths after Crash and Recover.
func (s *Scheduler) reindex(id int) {
	if s.lv.n != nil {
		s.lv.file(id, s.level(id))
	}
	if s.loads.node != nil {
		s.loads.set(id, s.loadKey(id))
	}
	if s.pool != nil {
		s.pool.fix(id)
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
	members := make([][]int32, n)
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
		members[sh] = make([]int32, 0, c)
	}
	for id, sh := range shardOf {
		members[sh] = append(members[sh], int32(id))
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
// (global-queue mode's "servers available at that time"): the least
// committed, ties to the lowest ID.
func (s *Scheduler) availableServer() *server.Server {
	return s.leastSpare(len(s.servers))
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
func (s *Scheduler) taskDone(_ *server.Server, t *job.Task) {
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
	// Push outputs toward dependent tasks. Each edge object binds its
	// delivery callback once; a pooled job's edges keep theirs.
	for _, edge := range t.Out {
		if edge.Deliver == nil {
			edge.Deliver = func() { s.deliver(edge) }
		}
		if s.cfg.Transfer == nil || edge.Bytes == 0 || edge.To.ServerID == t.ServerID {
			// Same server or no network: results are local. Deliver via
			// the event queue to keep ordering deterministic.
			s.eng.After(0, edge.Deliver)
		} else {
			dst := edge.To.ServerID
			if dst < 0 {
				// Destination unknown until dispatch — global-queue mode,
				// or a placement deferred because every server was down
				// at admission. The transfer cannot be routed yet; model
				// it by delivering the dependency now (the network
				// latency and energy of this edge are not charged).
				s.cover.Hit(modelcov.SchedDeferredPlace)
				s.eng.After(0, edge.Deliver)
			} else {
				s.cfg.Transfer(t.ServerID, dst, edge.Bytes, edge.Deliver)
			}
		}
	}
	if s.ctrl != nil {
		s.ctrl.Evaluate(s)
	}
	s.drainGlobalQueue()
}

// deliver lands an edge's data at its child task, which becomes ready
// with its last input: the body of every edge's Deliver callback.
func (s *Scheduler) deliver(edge *job.Edge) {
	if edge.To.State == job.TaskLost {
		return // the dependent's job was retracted mid-transfer
	}
	if edge.To.SatisfyDep() {
		edge.To.State = job.TaskReady
		s.admitReady(edge.To)
	}
}

// drainGlobalQueue dispatches parked tasks to servers that freed up.
func (s *Scheduler) drainGlobalQueue() {
	if !s.cfg.UseGlobalQueue || len(s.globalQ) == 0 {
		return
	}
	// Nothing in the loop frees a slot, so once one task finds no
	// server, none after it can: stop there and keep the rest in order.
	n := 0
	for ; n < len(s.globalQ); n++ {
		srv := s.availableServer()
		if srv == nil {
			break
		}
		t := s.globalQ[n]
		t.ServerID = srv.ID()
		s.cover.Hit(modelcov.PlaceGlobalQDrain)
		// Symmetric with admitReady's global-queue path: every
		// dispatched task holds one commitment, so taskDone's
		// decrement — and the crash path's per-orphan decommit —
		// release exactly what was taken.
		s.commit(srv.ID(), 1)
		s.submit(srv, t)
	}
	s.globalQ = s.globalQ[:copy(s.globalQ, s.globalQ[n:])]
}
