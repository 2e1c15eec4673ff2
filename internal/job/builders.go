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

// Single builds a one-task job on the nil pool.
func Single(id ID, arrive simtime.Time, size simtime.Time) *Job {
	return (*Pool)(nil).Single(id, arrive, size)
}

// Single builds a one-task job.
func (p *Pool) Single(id ID, arrive simtime.Time, size simtime.Time) *Job {
	j := p.Get(id, arrive)
	j.AddTask(size)
	mustSeal(j)
	return j
}

// TwoTier builds the paper's web-request example: an application-server
// task followed by a database task, linked by bytes of intermediate data.
func (p *Pool) TwoTier(id ID, arrive simtime.Time, appSize, dbSize simtime.Time, bytes int64) *Job {
	j := p.Get(id, arrive)
	app := j.AddTask(appSize)
	db := j.AddTask(dbSize)
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
	root := j.AddTask(rootSize)
	gather := j.AddTask(gatherSize)
	for i := 0; i < width; i++ {
		w := j.AddTask(workerSize)
		j.Link(root, w, bytes)
		j.Link(w, gather, bytes)
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
			t := j.AddTask(size())
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
