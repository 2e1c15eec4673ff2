package job

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
)

// describe renders every field of a job, its tasks and its edges — the
// unexported ones included — with pointers reduced to what they must
// mean: a task's Job is this job, an edge is one object shared by its
// parent's Out and its child's In, list entries are task indices. A nil
// list and an empty one render alike: they behave alike.
func describe(t *testing.T, j *Job) string {
	t.Helper()
	s := fmt.Sprintf("job id=%d arrive=%v finish=%v finished=%d lost=%v pooled=%v tasks=%d",
		j.ID, j.ArriveAt, j.FinishAt, j.finished, j.lost, j.pooled, len(j.Tasks))
	edges := func(es []*Edge) string {
		out := ""
		for _, e := range es {
			shared := false
			for _, o := range e.From.Out {
				shared = shared || o == e
			}
			in := false
			for _, i := range e.To.In {
				in = in || i == e
			}
			out += fmt.Sprintf(" %d>%d/%dB/%v", e.From.Index, e.To.Index, e.Bytes, shared && in)
		}
		return out
	}
	for i, tk := range j.Tasks {
		s += fmt.Sprintf("\n t%d own=%v idx=%d size=%v int=%v state=%v srv=%d deps=%d in[%s] out[%s]",
			i, tk.Job == j, tk.Index, tk.Size, tk.Intensity, tk.State, tk.ServerID,
			tk.pendingDeps, edges(tk.In), edges(tk.Out))
	}
	s += "\n order:"
	for _, tk := range j.order {
		s += fmt.Sprintf(" %d", tk.Index)
	}
	return s
}

// runToCompletion finishes every task as a scheduler would, leaving the
// dirt a recycled job must not show: placements, the finish time,
// states, consumed dependency counts.
func runToCompletion(t *testing.T, j *Job) {
	t.Helper()
	order, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	now := j.ArriveAt
	for i, tk := range order {
		now += simtime.Millisecond
		tk.ServerID = 7 + i
		j.TaskFinished(tk, now)
		for _, e := range tk.Out {
			if e.To.SatisfyDep() {
				e.To.State = TaskReady
			}
		}
	}
	if !j.Done() {
		t.Fatal("job not done after finishing every task")
	}
}

// builders are the five DAG shapes, each in two sizes so that a recycled
// job is rebuilt both smaller and larger than the storage it brings.
func builders() map[string][2]func(p *Pool, id ID, r *rng.Source) *Job {
	ms := simtime.Millisecond
	type build = func(p *Pool, id ID, r *rng.Source) *Job
	return map[string][2]build{
		"Single": {
			func(p *Pool, id ID, _ *rng.Source) *Job { return p.Single(id, 5*ms, ms) },
			func(p *Pool, id ID, _ *rng.Source) *Job { return p.Single(id, 9*ms, 3*ms) },
		},
		"TwoTier": {
			func(p *Pool, id ID, _ *rng.Source) *Job { return p.TwoTier(id, 5*ms, ms, 2*ms, 100) },
			func(p *Pool, id ID, _ *rng.Source) *Job { return p.TwoTier(id, 9*ms, 4*ms, ms, 0) },
		},
		"Chain": {
			func(p *Pool, id ID, _ *rng.Source) *Job { return p.Chain(id, 5*ms, 6, ms, 64) },
			func(p *Pool, id ID, _ *rng.Source) *Job { return p.Chain(id, 9*ms, 3, 2*ms, 8) },
		},
		"ScatterGather": {
			func(p *Pool, id ID, _ *rng.Source) *Job { return p.ScatterGather(id, 5*ms, 4, ms, 2*ms, 3*ms, 4096) },
			func(p *Pool, id ID, _ *rng.Source) *Job { return p.ScatterGather(id, 9*ms, 7, 3*ms, ms, 2*ms, 512) },
		},
		"RandomDAG": {
			func(p *Pool, id ID, r *rng.Source) *Job { return p.RandomDAG(id, 5*ms, r, 4, 5, 3, ms, 9*ms, 1000) },
			func(p *Pool, id ID, r *rng.Source) *Job { return p.RandomDAG(id, 9*ms, r, 3, 6, 2, ms, 4*ms, 10) },
		},
	}
}

// TestRecycledJobEqualsFresh is the recycling safety law: whatever a
// job was and however it ran, once it has been through the pool a
// builder makes of it exactly what it makes of a new job — every field,
// In and Out lists, dependency counts and the kept topological order.
// Every builder is fed storage left by every builder, in both sizes.
func TestRecycledJobEqualsFresh(t *testing.T) {
	bs := builders()
	for firstName, first := range bs {
		for nextName, next := range bs {
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					name := fmt.Sprintf("%s%d->%s%d", firstName, a, nextName, b)
					pool := new(Pool)
					old := first[a](pool, 1, rng.New(3))
					runToCompletion(t, old)
					pool.Put(old)
					got := next[b](pool, 2, rng.New(11))
					if got != old {
						t.Fatalf("%s: the pool did not hand the finished job out again", name)
					}
					want := next[b](nil, 2, rng.New(11))
					if g, w := describe(t, got), describe(t, want); g != w {
						t.Errorf("%s: recycled job differs from a fresh one\nrecycled:\n%s\nfresh:\n%s", name, g, w)
					}
					// And it runs like one.
					runToCompletion(t, got)
					runToCompletion(t, want)
					if g, w := describe(t, got), describe(t, want); g != w {
						t.Errorf("%s: recycled job ran differently\nrecycled:\n%s\nfresh:\n%s", name, g, w)
					}
				}
			}
		}
	}
}

// TestCarvedJobEqualsFresh: a job an empty pool carves from its block
// is what New gives, built and run by every builder; and carving a
// single-task job allocates nothing of its own, block growth aside.
func TestCarvedJobEqualsFresh(t *testing.T) {
	for name, b := range builders() {
		for size := 0; size < 2; size++ {
			got := b[size](new(Pool), 2, rng.New(11))
			want := b[size](nil, 2, rng.New(11))
			if g, w := describe(t, got), describe(t, want); g != w {
				t.Errorf("%s%d: carved job differs from a fresh one\ncarved:\n%s\nfresh:\n%s", name, size, g, w)
			}
			runToCompletion(t, got)
			runToCompletion(t, want)
			if g, w := describe(t, got), describe(t, want); g != w {
				t.Errorf("%s%d: carved job ran differently\ncarved:\n%s\nfresh:\n%s", name, size, g, w)
			}
		}
	}
	pool := new(Pool)
	if allocs := testing.AllocsPerRun(1000, func() { pool.Single(1, 0, simtime.Millisecond) }); allocs != 0 {
		t.Errorf("carving single-task jobs allocates %v per job, want 0", allocs)
	}
}

// TestPoolKeepsOnlyFinishedJobs: a lost job may still be named by a
// transfer in flight or a parked task, an unfinished one is still
// running — neither is ever handed out again, and a job offered twice is
// handed out once.
func TestPoolKeepsOnlyFinishedJobs(t *testing.T) {
	pool := new(Pool)
	lost := nilPool.TwoTier(1, 0, simtime.Millisecond, simtime.Millisecond, 10)
	lost.TaskFinished(lost.Tasks[0], simtime.Millisecond)
	lost.MarkLost()
	running := Single(2, 0, simtime.Millisecond)
	pool.Put(lost)
	pool.Put(running)
	if j := pool.Get(3, 0); j == lost || j == running {
		t.Fatalf("pool handed out a lost or unfinished job")
	}

	done := Single(4, 0, simtime.Millisecond)
	runToCompletion(t, done)
	pool.Put(done)
	pool.Put(done)
	if j := pool.Get(5, 0); j != done {
		t.Fatal("pool did not hand out the finished job")
	}
	if j := pool.Get(6, 0); j == done {
		t.Fatal("a job offered twice was handed out twice")
	}

	var none *Pool // the nil pool allocates and keeps nothing
	none.Put(done)
	if j := none.Get(7, 0); j == done {
		t.Fatal("nil pool recycled a job")
	}
}

// TestPooledBuildersSteadyStateZeroAlloc: a stream of same-shaped jobs
// through a pool allocates nothing once the first job's storage exists.
func TestPooledBuildersSteadyStateZeroAlloc(t *testing.T) {
	for name, b := range builders() {
		if name == "RandomDAG" {
			continue // its shape, and so its storage, varies job to job
		}
		pool, r := new(Pool), rng.New(1)
		cycle := func() {
			j := b[0](pool, 1, r)
			for _, tk := range j.order {
				j.TaskFinished(tk, j.ArriveAt)
			}
			pool.Put(j)
		}
		cycle()
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("%s: pooled build/finish/recycle allocates %v per job, want 0", name, allocs)
		}
	}
}

// TestTopoOrderBeforeSeal: TopoOrder is the order Seal keeps, and on a
// job not yet sealed it is computed on the spot — the same order, and
// the same error for a cycle.
func TestTopoOrderBeforeSeal(t *testing.T) {
	j := New(1, 0)
	a, b, c := j.AddTask(1), j.AddTask(1), j.AddTask(1)
	j.Link(c, a, 0)
	j.Link(a, b, 0)
	unsealed, err := j.TopoOrder()
	if err != nil || len(unsealed) != 3 || unsealed[0] != c || unsealed[1] != a || unsealed[2] != b {
		t.Fatalf("unsealed order %v, err %v", unsealed, err)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	sealed, _ := j.TopoOrder()
	if len(sealed) != 3 || sealed[0] != c || sealed[1] != a || sealed[2] != b || b.pendingDeps != 1 {
		t.Fatalf("sealed order %v, b deps %d", sealed, b.pendingDeps)
	}
	j.Link(b, c, 0) // closes the cycle
	j.AddTask(1)
	if _, err := j.TopoOrder(); err == nil {
		t.Fatal("cycle not reported")
	}
}

// TestAddTaskResetsEveryField: AddTask resets a recycled task one field
// at a time, so a field it missed would carry the last job's value
// over. Every field of a task is made non-zero first, the unexported
// ones too; the recycled task must then equal a fresh one field for
// field, its Job being its own job and its edge lists empty.
func TestAddTaskResetsEveryField(t *testing.T) {
	j := New(1, 0)
	old := j.AddTask(5)
	other := New(9, 0)
	v := reflect.ValueOf(old).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint8:
			if f.CanInt() {
				f.SetInt(7)
			} else {
				f.SetUint(7)
			}
		case reflect.Float64:
			f.SetFloat(0.25)
		case reflect.Pointer:
			f.Set(reflect.ValueOf(other))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]*Edge{{}}))
		default:
			t.Fatalf("Task.%s: kind %v has no dirty value here; give it one", v.Type().Field(i).Name, f.Kind())
		}
	}
	j.Tasks = j.Tasks[:0]
	got := j.AddTask(3)
	if got != old {
		t.Fatal("AddTask did not reuse the task")
	}
	fresh := New(1, 0).AddTask(3)
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(fresh).Elem()
	for i := range g.NumField() {
		name := g.Type().Field(i).Name
		switch name {
		case "Job":
			if got.Job != j {
				t.Errorf("Job is not the recycling job")
			}
		case "In", "Out":
			if g.Field(i).Len() != 0 {
				t.Errorf("%s has %d entries", name, g.Field(i).Len())
			}
		default:
			if a, b := fmt.Sprint(g.Field(i)), fmt.Sprint(w.Field(i)); a != b {
				t.Errorf("%s = %s, fresh %s", name, a, b)
			}
		}
	}
}
