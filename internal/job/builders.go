package job

import (
	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
)

// The builders below create the DAG shapes used across the paper's case
// studies: single-task jobs (Secs. IV-A/B/C), two-tier app+db requests
// (Sec. III-C's web example), fan-out/fan-in scatter-gather, chains, and
// random DAGs for the network case study (Sec. IV-D).

// Single builds a one-task job.
func Single(id ID, arrive simtime.Time, size simtime.Time) *Job {
	j := New(id, arrive)
	j.AddTask(size, "")
	mustSeal(j)
	return j
}

// TwoTier builds the paper's web-request example: an application-server
// task followed by a database task, linked by bytes of intermediate data.
func TwoTier(id ID, arrive simtime.Time, appSize, dbSize simtime.Time, bytes int64) *Job {
	j := New(id, arrive)
	app := j.AddTask(appSize, "app")
	db := j.AddTask(dbSize, "db")
	j.Link(app, db, bytes)
	mustSeal(j)
	return j
}

// Chain builds a linear pipeline of n tasks of the given size, each edge
// carrying bytes.
func Chain(id ID, arrive simtime.Time, n int, size simtime.Time, bytes int64) *Job {
	if n < 1 {
		panic("job: Chain needs n >= 1")
	}
	j := New(id, arrive)
	prev := j.AddTask(size, "")
	for i := 1; i < n; i++ {
		t := j.AddTask(size, "")
		j.Link(prev, t, bytes)
		prev = t
	}
	mustSeal(j)
	return j
}

// ScatterGather builds a root task that fans out to width workers whose
// results feed a final aggregation task — the structure of a web-search
// query over index shards.
func ScatterGather(id ID, arrive simtime.Time, width int, rootSize, workerSize, gatherSize simtime.Time, bytes int64) *Job {
	if width < 1 {
		panic("job: ScatterGather needs width >= 1")
	}
	// The shape is known up front, so the DAG is allocated in one block
	// per element type instead of task by task and edge by edge: width+2
	// tasks, 2*width edges, and the 4*width edge pointers of every In/Out
	// list. Task, edge and list order are those AddTask/Link would give.
	tasks := make([]Task, width+2)
	edges := make([]Edge, 2*width)
	lists := make([]*Edge, 4*width)
	take := func(n int) []*Edge {
		l := lists[:n:n]
		lists = lists[n:]
		return l
	}
	j := New(id, arrive)
	j.Tasks = make([]*Task, len(tasks))
	for i := range tasks {
		tasks[i] = Task{Job: j, Index: i, Size: workerSize, Kind: "worker", Intensity: 1}
		j.Tasks[i] = &tasks[i]
	}
	root, gather := &tasks[0], &tasks[1]
	root.Size, root.Kind, root.Out = rootSize, "frontend", take(width)
	gather.Size, gather.Kind, gather.In = gatherSize, "frontend", take(width)
	for i := 0; i < width; i++ {
		w := &tasks[2+i]
		scatter, collect := &edges[2*i], &edges[2*i+1]
		*scatter = Edge{From: root, To: w, Bytes: bytes}
		*collect = Edge{From: w, To: gather, Bytes: bytes}
		w.In, w.Out = take(1), take(1)
		root.Out[i], w.In[0] = scatter, scatter
		w.Out[0], gather.In[i] = collect, collect
	}
	mustSeal(j)
	return j
}

// RandomDAG builds a layered random DAG: layers of random width, each
// non-root task depending on 1..maxDeps random tasks from the previous
// layer. Sizes are drawn uniformly from [minSize, maxSize] and every edge
// carries bytes. This drives the Sec. IV-D joint server-network study,
// where "dependence among tasks is modeled as a DAG where traffic pattern
// among these tasks is known".
func RandomDAG(id ID, arrive simtime.Time, r *rng.Source, layers, maxWidth, maxDeps int,
	minSize, maxSize simtime.Time, bytes int64) *Job {
	if layers < 1 || maxWidth < 1 || maxDeps < 1 {
		panic("job: RandomDAG needs positive shape parameters")
	}
	j := New(id, arrive)
	size := func() simtime.Time {
		return minSize + simtime.Time(r.IntN(int(maxSize-minSize)+1))
	}
	prev := []*Task{}
	for l := 0; l < layers; l++ {
		width := 1 + r.IntN(maxWidth)
		cur := make([]*Task, 0, width)
		for w := 0; w < width; w++ {
			t := j.AddTask(size(), "")
			if l > 0 {
				deps := 1 + r.IntN(maxDeps)
				if deps > len(prev) {
					deps = len(prev)
				}
				for _, pi := range r.Perm(len(prev))[:deps] {
					j.Link(prev[pi], t, bytes)
				}
			}
			cur = append(cur, t)
		}
		prev = cur
	}
	mustSeal(j)
	return j
}

func mustSeal(j *Job) {
	if err := j.Seal(); err != nil {
		panic(err)
	}
}
