package sched

import (
	"testing"

	"holdcsim/internal/dist"
	"holdcsim/internal/job"
	"holdcsim/internal/rng"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// TestRecyclingUnderCrashes runs the paths that hold task pointers
// across events — crash, abort, retract, requeue, parked tasks, edge
// transfers in flight — with the job free list on, under both orphan
// policies, and checks the lifetime rule from outside: a job is handed
// out again only after it finished, never while it is in the system and
// never once it was lost; it arrives pristine; and the run still
// conserves jobs.
func TestRecyclingUnderCrashes(t *testing.T) {
	for _, policy := range []OrphanPolicy{OrphanRequeue, OrphanDrop} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			eng, servers := testFarm(t, 6, nil)
			// Edge data takes 2 ms to cross, so crashes find transfers in
			// flight whose completion closures name tasks of live jobs.
			transfer := func(from, to int, bytes int64, done func()) {
				eng.After(2*simtime.Millisecond, done)
			}
			s, err := New(eng, servers, Config{Placer: LeastLoaded{}, Orphans: policy, Transfer: transfer})
			if err != nil {
				t.Fatal(err)
			}
			svc := dist.Exponential{MeanValue: 0.004}
			gen := workload.NewGenerator(eng, rng.New(5), workload.Poisson{Rate: 1500},
				workload.ScatterGather{Width: 3, RootSize: svc, WorkerSize: svc, AggSize: svc, Bytes: 1000},
				s.JobArrived)
			gen.MaxJobs = 3000
			s.OnJobDone(gen.Recycle)

			inSystem := map[*job.Job]job.ID{}
			lost := map[*job.Job]bool{}
			completed := map[job.ID]int{}
			reused := 0
			seen := map[*job.Job]bool{}
			s.OnJobArrived(func(j *job.Job) {
				if id, live := inSystem[j]; live {
					t.Fatalf("job %d arrived in the storage of job %d, still in the system", j.ID, id)
				}
				if lost[j] {
					t.Fatalf("job %d arrived in the storage of a lost job", j.ID)
				}
				if j.Done() || j.Lost() {
					t.Fatalf("job %d arrived done=%v lost=%v", j.ID, j.Done(), j.Lost())
				}
				for _, tk := range j.Tasks {
					if want := len(tk.In); tk.Job != j ||
						(want == 0) != (tk.State == job.TaskReady) || (want > 0) != (tk.State == job.TaskBlocked) {
						t.Fatalf("job %d arrived with a used task: %s state %v with %d inputs", j.ID, tk.Name(), tk.State, want)
					}
				}
				if seen[j] {
					reused++
				}
				seen[j] = true
				inSystem[j] = j.ID
			})
			s.OnJobDone(func(j *job.Job) {
				if inSystem[j] != j.ID {
					t.Fatalf("job %d finished but its storage belongs to job %d", j.ID, inSystem[j])
				}
				delete(inSystem, j)
				completed[j.ID]++
			})
			s.OnJobLost(func(j *job.Job, _ LostReason) {
				delete(inSystem, j)
				lost[j] = true
			})

			// A rolling outage: two servers at a time, back 15 ms later.
			for k := 0; k < 40; k++ {
				a, b := servers[k%6], servers[(k+3)%6]
				at := simtime.Time(k) * 45 * simtime.Millisecond
				eng.Schedule(at+20*simtime.Millisecond, func() { s.ServersCrashed([]*server.Server{a, b}) })
				eng.Schedule(at+35*simtime.Millisecond, func() { s.ServersRecovered([]*server.Server{a, b}) })
			}
			gen.Start()
			eng.Run()

			if got, want := int64(len(completed))+s.JobsLost(), gen.Generated(); got != want || s.JobsInSystem() != 0 {
				t.Fatalf("generated %d != completed %d + lost %d (in system %d)", want, len(completed), s.JobsLost(), s.JobsInSystem())
			}
			for id, n := range completed {
				if n != 1 {
					t.Fatalf("job %d completed %d times", id, n)
				}
			}
			if int64(len(lost)) != s.JobsLost() {
				t.Fatalf("%d distinct lost jobs, scheduler counts %d", len(lost), s.JobsLost())
			}
			if policy == OrphanDrop && len(lost) == 0 {
				t.Fatal("the outage lost no job: the test exercises nothing")
			}
			if s.TasksAborted() == 0 || reused < 1000 {
				t.Fatalf("tasks aborted %d, jobs recycled %d: the test exercises nothing", s.TasksAborted(), reused)
			}
		})
	}
}
