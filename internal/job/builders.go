package job

import (
	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
)

// The builders below create the DAG shapes used across the paper's case
// studies: single-task jobs (Secs. IV-A/B/C), two-tier app+db requests
// (Sec. III-C's web example), fan-out/fan-in scatter-gather, and
// random DAGs for the network case study (Sec. IV-D). Each is a method
// of *Pool that builds into a recycled job when the pool holds one; the
// nil pool allocates.

// Single builds a one-task job of any kind on the nil pool.
func Single(id ID, arrive simtime.Time, size simtime.Time) *Job {
	return (*Pool)(nil).Single(id, arrive, size, "")
}

// Single builds a one-task job of the given kind.
func (p *Pool) Single(id ID, arrive simtime.Time, size simtime.Time, kind string) *Job {
	j := p.Get(id, arrive)
	j.AddTask(size, kind)
	mustSeal(j)
	return j
}

// TwoTier builds the paper's web-request example: an application-server
// task followed by a database task, linked by bytes of intermediate data.
func (p *Pool) TwoTier(id ID, arrive simtime.Time, appSize, dbSize simtime.Time, bytes int64) *Job {
	j := p.Get(id, arrive)
	app := j.AddTask(appSize, "app")
	db := j.AddTask(dbSize, "db")
	j.Link(app, db, bytes)
	mustSeal(j)
	return j
}

// ScatterGather builds a root task that fans out to width workers whose
// results feed a final aggregation task — the structure of a web-search
// query over index shards.
func (p *Pool) ScatterGather(id ID, arrive simtime.Time, width int, rootSize, workerSize, gatherSize simtime.Time, bytes int64) *Job {
	if width < 1 {
		panic("job: ScatterGather needs width >= 1")
	}
	j := p.Get(id, arrive)
	if cap(j.Tasks) == 0 {
		j.reserveScatterGather(width)
	}
	root := j.AddTask(rootSize, "frontend")
	gather := j.AddTask(gatherSize, "frontend")
	for i := 0; i < width; i++ {
		w := j.AddTask(workerSize, "worker")
		j.Link(root, w, bytes)
		j.Link(w, gather, bytes)
	}
	mustSeal(j)
	return j
}

// reserveScatterGather gives a new job the storage a recycled
// scatter-gather job of this width would bring: the shape is known up
// front, so it is one block per element type instead of an allocation
// per task, edge and list growth — width+2 tasks, 2*width edges (each
// parked in the Out slot that owns it) and the 4*width edge pointers of
// every In/Out list.
func (j *Job) reserveScatterGather(width int) {
	tasks := make([]Task, width+2)
	edges := make([]Edge, 2*width)
	lists := make([]*Edge, 4*width)
	take := func(n int) []*Edge { // an empty list over the next n slots
		l := lists[:0:n]
		lists = lists[n:]
		return l
	}
	j.Tasks = make([]*Task, 0, width+2)
	for i := range tasks {
		j.Tasks[:i+1][i] = &tasks[i]
	}
	root, gather := &tasks[0], &tasks[1]
	root.Out, gather.In = take(width), take(width)
	for i := 0; i < width; i++ {
		w := &tasks[2+i]
		w.In, w.Out = take(1), take(1)
		root.Out[:width][i], w.Out[:1][0] = &edges[2*i], &edges[2*i+1]
	}
}

// RandomDAG builds a layered random DAG: layers of random width, each
// non-root task depending on 1..maxDeps random tasks from the previous
// layer. Sizes are drawn uniformly from [minSize, maxSize] and every edge
// carries bytes. This drives the Sec. IV-D joint server-network study,
// where "dependence among tasks is modeled as a DAG where traffic pattern
// among these tasks is known".
func (p *Pool) RandomDAG(id ID, arrive simtime.Time, r *rng.Source, layers, maxWidth, maxDeps int,
	minSize, maxSize simtime.Time, bytes int64) *Job {
	if layers < 1 || maxWidth < 1 || maxDeps < 1 {
		panic("job: RandomDAG needs positive shape parameters")
	}
	j := p.Get(id, arrive)
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
