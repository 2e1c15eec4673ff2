package workload

import (
	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
)

// Generator drives an arrival process on the virtual clock, expanding
// each arrival through the factory and handing the job to the sink (the
// global scheduler's front end, Fig. 1).
type Generator struct {
	eng     *engine.Engine
	arrival *rng.Source
	service *rng.Source
	proc    ArrivalProcess
	factory JobFactory
	sink    func(*job.Job)

	// MaxJobs stops generation after this many jobs (0 = unlimited).
	MaxJobs int64
	// Until stops generation at this virtual time (0 = unlimited).
	Until simtime.Time

	generated int64
	nextID    job.ID

	// One arrival is pending at a time, so its instant lives in a field,
	// the generator is the arrival event's handler (Fire) and ev is its
	// record.
	nextAt simtime.Time
	ev     engine.Event

	// pool recycles finished jobs into new arrivals (Recycle).
	pool job.Pool
}

// NewGenerator builds a generator. The rng source is split into
// independent arrival and service streams so changing one distribution
// never perturbs the other's draws.
func NewGenerator(eng *engine.Engine, r *rng.Source, proc ArrivalProcess,
	factory JobFactory, sink func(*job.Job)) *Generator {
	return &Generator{
		eng:     eng,
		arrival: r.Split("arrivals"),
		service: r.Split("service"),
		proc:    proc,
		factory: factory,
		sink:    sink,
	}
}

// Recycle takes back a finished job to build a later arrival in its
// storage: the simulation's job free list. The job stays readable until
// the event that finished it returns — it is handed out again only from
// an arrival, an event of its own. Lost and unfinished jobs are dropped.
func (g *Generator) Recycle(j *job.Job) { g.pool.Put(j) }

// Start schedules the first arrival.
func (g *Generator) Start() { g.scheduleNext() }

// Generated reports how many jobs have been injected.
func (g *Generator) Generated() int64 { return g.generated }

func (g *Generator) scheduleNext() {
	if g.MaxJobs > 0 && g.generated >= g.MaxJobs {
		return
	}
	gap := g.proc.Next(g.arrival)
	if gap < 0 {
		return // arrival stream ended (trace exhausted)
	}
	at := simtime.AddSeconds(g.eng.Now(), gap)
	if at == simtime.Forever || g.Until > 0 && at > g.Until {
		return // past the clock's end, or past the horizon
	}
	g.nextAt = at
	g.eng.ScheduleIn(&g.ev, at, g)
}

// Fire implements engine.Handler for the arrival event: it expands one
// job and hands it to the sink, then schedules the next arrival.
func (g *Generator) Fire() {
	j := g.factory.newJob(&g.pool, g.nextID, g.nextAt, g.service)
	g.nextID++
	g.generated++
	g.sink(j)
	g.scheduleNext()
}
