package job

import "holdcsim/internal/simtime"

// nilPool builds on no pool: every job is freshly allocated.
var nilPool *Pool

// Chain builds a linear pipeline of n tasks of the given size, each edge
// carrying bytes.
func (p *Pool) Chain(id ID, arrive simtime.Time, n int, size simtime.Time, bytes int64) *Job {
	if n < 1 {
		panic("job: Chain needs n >= 1")
	}
	j := p.Get(id, arrive)
	prev := j.AddTask(size)
	for i := 1; i < n; i++ {
		t := j.AddTask(size)
		j.Link(prev, t, bytes)
		prev = t
	}
	mustSeal(j)
	return j
}
