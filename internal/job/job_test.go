package job

import (
	"fmt"
	"testing"
	"testing/quick"

	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
)

func TestSingle(t *testing.T) {
	j := Single(1, 100, 5*simtime.Millisecond)
	if len(j.Tasks) != 1 {
		t.Fatalf("tasks = %d", len(j.Tasks))
	}
	tk := j.Tasks[0]
	if tk.State != TaskReady || !tk.IsRoot() || len(tk.Out) != 0 {
		t.Errorf("root task state = %v", tk.State)
	}
	if tk.ReadyAt != 100 {
		t.Errorf("ReadyAt = %v", tk.ReadyAt)
	}
	if done := j.TaskFinished(tk, 200); !done {
		t.Error("single-task job not done after task finish")
	}
	if j.Sojourn() != 100 {
		t.Errorf("Sojourn = %v", j.Sojourn())
	}
}

func TestTwoTierDependency(t *testing.T) {
	j := nilPool.TwoTier(2, 0, 3*simtime.Millisecond, 7*simtime.Millisecond, 4096)
	app, db := j.Tasks[0], j.Tasks[1]
	if app.Kind != "app" || db.Kind != "db" {
		t.Errorf("kinds = %q, %q", app.Kind, db.Kind)
	}
	if app.State != TaskReady {
		t.Errorf("app state = %v", app.State)
	}
	if db.State != TaskBlocked || db.pendingDeps != 1 {
		t.Errorf("db state = %v deps = %d", db.State, db.pendingDeps)
	}
	if done := j.TaskFinished(app, 50); done {
		t.Error("job done before db ran")
	}
	if ready := db.SatisfyDep(); !ready {
		t.Error("db should be ready after dep satisfied")
	}
	if done := j.TaskFinished(db, 80); !done {
		t.Error("job should be done")
	}
}

func TestChainStructure(t *testing.T) {
	j := nilPool.Chain(3, 0, 5, simtime.Millisecond, 100)
	if len(j.Tasks) != 5 {
		t.Fatalf("tasks = %d", len(j.Tasks))
	}
	for i, tk := range j.Tasks {
		if (tk.State == TaskReady) != (i == 0) {
			t.Errorf("task %d starts %v; only the head of a chain is ready", i, tk.State)
		}
	}
	for i, tk := range j.Tasks {
		wantIn := 1
		if i == 0 {
			wantIn = 0
		}
		wantOut := 1
		if i == 4 {
			wantOut = 0
		}
		if len(tk.In) != wantIn || len(tk.Out) != wantOut {
			t.Errorf("task %d in/out = %d/%d", i, len(tk.In), len(tk.Out))
		}
	}
}

func TestScatterGather(t *testing.T) {
	j := nilPool.ScatterGather(4, 0, 8, simtime.Millisecond, 2*simtime.Millisecond, simtime.Millisecond, 1024)
	if len(j.Tasks) != 10 {
		t.Fatalf("tasks = %d", len(j.Tasks))
	}
	root, gather := j.Tasks[0], j.Tasks[1]
	if len(root.Out) != 8 {
		t.Errorf("root fan-out = %d", len(root.Out))
	}
	if len(gather.In) != 8 || gather.pendingDeps != 8 {
		t.Errorf("gather fan-in = %d deps = %d", len(gather.In), gather.pendingDeps)
	}
	order, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != root || order[len(order)-1] != gather {
		t.Error("topo order should start at root and end at gather")
	}
}

// TestScatterGatherMatchesLinkBuild pins the block-allocated builder to
// the DAG that AddTask/Link produce for the same shape: task order and
// attributes, every In/Out list in order, sealed state and TopoOrder.
func TestScatterGatherMatchesLinkBuild(t *testing.T) {
	for _, width := range []int{1, 2, 4, 9} {
		got := nilPool.ScatterGather(7, 3*simtime.Second, width, simtime.Millisecond, 2*simtime.Millisecond, 3*simtime.Millisecond, 4096)
		want := New(7, 3*simtime.Second)
		root := want.AddTask(simtime.Millisecond, "frontend")
		gather := want.AddTask(3*simtime.Millisecond, "frontend")
		for i := 0; i < width; i++ {
			w := want.AddTask(2*simtime.Millisecond, "worker")
			want.Link(root, w, 4096)
			want.Link(w, gather, 4096)
		}
		if err := want.Seal(); err != nil {
			t.Fatal(err)
		}
		describe := func(j *Job) string {
			s := fmt.Sprintf("job %d at %v:", j.ID, j.ArriveAt)
			edges := func(es []*Edge) string {
				out := ""
				for _, e := range es {
					out += fmt.Sprintf(" %d>%d/%d", e.From.Index, e.To.Index, e.Bytes)
				}
				return out
			}
			for _, tk := range j.Tasks {
				s += fmt.Sprintf("\n%s own=%v size=%v kind=%s int=%v state=%v deps=%d ready=%v in[%s] out[%s]",
					tk.Name(), tk.Job == j, tk.Size, tk.Kind, tk.Intensity, tk.State, tk.pendingDeps, tk.ReadyAt,
					edges(tk.In), edges(tk.Out))
			}
			order, err := j.TopoOrder()
			if err != nil {
				t.Fatal(err)
			}
			s += "\ntopo:"
			for _, tk := range order {
				s += fmt.Sprintf(" %d", tk.Index)
			}
			return s
		}
		if g, w := describe(got), describe(want); g != w {
			t.Errorf("width %d: block-built job differs from AddTask/Link build\ngot:\n%s\nwant:\n%s", width, g, w)
		}
		// The shared pointer block must not let one list grow into the next.
		for _, tk := range got.Tasks {
			if cap(tk.In) != len(tk.In) || cap(tk.Out) != len(tk.Out) {
				t.Errorf("width %d: %s In/Out have spare capacity %d/%d", width, tk.Name(), cap(tk.In)-len(tk.In), cap(tk.Out)-len(tk.Out))
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	j := New(5, 0)
	a := j.AddTask(simtime.Millisecond, "")
	b := j.AddTask(simtime.Millisecond, "")
	j.Link(a, b, 0)
	j.Link(b, a, 0)
	if err := j.Seal(); err == nil {
		t.Error("cyclic DAG sealed without error")
	}
}

func TestEmptyJobSealFails(t *testing.T) {
	j := New(6, 0)
	if err := j.Seal(); err == nil {
		t.Error("empty job sealed without error")
	}
}

func TestSelfLinkPanics(t *testing.T) {
	j := New(7, 0)
	a := j.AddTask(simtime.Millisecond, "")
	defer func() {
		if recover() == nil {
			t.Error("self link did not panic")
		}
	}()
	j.Link(a, a, 0)
}

func TestCrossJobLinkPanics(t *testing.T) {
	j1, j2 := New(8, 0), New(9, 0)
	a := j1.AddTask(simtime.Millisecond, "")
	b := j2.AddTask(simtime.Millisecond, "")
	defer func() {
		if recover() == nil {
			t.Error("cross-job link did not panic")
		}
	}()
	j1.Link(a, b, 0)
}

func TestDoubleFinishPanics(t *testing.T) {
	j := Single(10, 0, simtime.Millisecond)
	j.TaskFinished(j.Tasks[0], 1)
	defer func() {
		if recover() == nil {
			t.Error("double finish did not panic")
		}
	}()
	j.TaskFinished(j.Tasks[0], 2)
}

func TestSatisfyDepUnderflowPanics(t *testing.T) {
	j := Single(11, 0, simtime.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("SatisfyDep underflow did not panic")
		}
	}()
	j.Tasks[0].SatisfyDep()
}

func TestServiceTimeScaling(t *testing.T) {
	j := New(12, 0)
	tk := j.AddTask(10*simtime.Millisecond, "")
	// Fully compute-bound: halving speed doubles time.
	if got := tk.ServiceTime(0.5); got != 20*simtime.Millisecond {
		t.Errorf("ServiceTime(0.5) = %v", got)
	}
	if got := tk.ServiceTime(2); got != 5*simtime.Millisecond {
		t.Errorf("ServiceTime(2) = %v", got)
	}
	// Memory-bound half: only the compute half scales.
	tk.Intensity = 0.5
	if got := tk.ServiceTime(2); got != 7500*simtime.Microsecond {
		t.Errorf("ServiceTime(2) with intensity 0.5 = %v", got)
	}
	if got := tk.ServiceTime(1); got != 10*simtime.Millisecond {
		t.Errorf("ServiceTime(1) = %v", got)
	}
}

func TestServiceTimeZeroSpeedPanics(t *testing.T) {
	j := Single(13, 0, simtime.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("zero speed did not panic")
		}
	}()
	j.Tasks[0].ServiceTime(0)
}

func TestRandomDAGProperties(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		j := nilPool.RandomDAG(ID(trial), 0, r, 4, 5, 3, simtime.Millisecond, 10*simtime.Millisecond, 1000)
		order, err := j.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(order) != len(j.Tasks) {
			t.Fatalf("trial %d: topo covered %d of %d", trial, len(order), len(j.Tasks))
		}
		// Every non-root task must have at least one parent; sizes in range.
		pos := make(map[*Task]int, len(order))
		for i, tk := range order {
			pos[tk] = i
		}
		for _, tk := range j.Tasks {
			if tk.Size < simtime.Millisecond || tk.Size > 10*simtime.Millisecond {
				t.Fatalf("trial %d: size %v out of range", trial, tk.Size)
			}
			for _, e := range tk.In {
				if pos[e.From] >= pos[tk] {
					t.Fatalf("trial %d: topo order violates edge", trial)
				}
			}
		}
	}
}

// Property: finishing tasks in any topological order completes the job
// exactly when the last task finishes.
func TestJobCompletionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		j := nilPool.RandomDAG(1, 0, r, 3, 4, 2, simtime.Millisecond, 5*simtime.Millisecond, 10)
		order, err := j.TopoOrder()
		if err != nil {
			return false
		}
		now := simtime.Time(0)
		for i, tk := range order {
			now += simtime.Millisecond
			done := j.TaskFinished(tk, now)
			// Propagate deps as the scheduler would.
			for _, e := range tk.Out {
				if e.To.SatisfyDep() {
					e.To.State = TaskReady
				}
			}
			if done != (i == len(order)-1) {
				return false
			}
		}
		return j.Done() && j.FinishAt == now
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTaskStateString(t *testing.T) {
	states := []TaskState{TaskBlocked, TaskReady, TaskQueued, TaskRunning, TaskFinished}
	want := []string{"blocked", "ready", "queued", "running", "finished"}
	for i, s := range states {
		if s.String() != want[i] {
			t.Errorf("state %d = %q", i, s.String())
		}
	}
	if TaskState(99).String() != "TaskState(99)" {
		t.Error("unknown state formatting")
	}
}
