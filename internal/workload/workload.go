// Package workload implements HolDCSim's workload module (paper
// Sec. III-D): stochastic job arrivals (Poisson and 2-state MMPP),
// trace-driven arrivals, and job factories that expand each arrival into
// a task DAG. The generator injects jobs into the data center through a
// sink callback on the virtual clock.
package workload

import (
	"fmt"

	"holdcsim/internal/dist"
	"holdcsim/internal/job"
	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
	"holdcsim/internal/trace"
)

// ArrivalProcess produces successive inter-arrival gaps in seconds.
type ArrivalProcess interface {
	// Next returns the gap to the next arrival; a negative value ends
	// the stream.
	Next(r *rng.Source) float64
	// String describes the process.
	String() string
}

// Poisson is a homogeneous Poisson arrival process.
type Poisson struct {
	Rate float64 // arrivals/second
}

// Next implements ArrivalProcess.
func (p Poisson) Next(r *rng.Source) float64 {
	if p.Rate <= 0 {
		return -1
	}
	return r.Exp(1 / p.Rate)
}

func (p Poisson) String() string { return fmt.Sprintf("poisson(λ=%g/s)", p.Rate) }

// MMPP wraps the 2-state Markov-Modulated Poisson Process.
type MMPP struct {
	Proc *dist.MMPP2
}

// Next implements ArrivalProcess.
func (m MMPP) Next(r *rng.Source) float64 { return m.Proc.Next(r) }

func (m MMPP) String() string { return m.Proc.String() }

// TraceReplay replays recorded arrival timestamps (paper Sec. III-D's
// "actual system trace-based workload simulation").
type TraceReplay struct {
	tr   *trace.Trace
	idx  int
	prev float64
}

// NewTraceReplay wraps a trace for replay from its beginning.
func NewTraceReplay(tr *trace.Trace) *TraceReplay { return &TraceReplay{tr: tr} }

// Next implements ArrivalProcess; it returns -1 once the trace ends.
func (t *TraceReplay) Next(*rng.Source) float64 {
	if t.idx >= t.tr.Len() {
		return -1
	}
	gap := t.tr.Times[t.idx] - t.prev
	t.prev = t.tr.Times[t.idx]
	t.idx++
	return gap
}

func (t *TraceReplay) String() string {
	return fmt.Sprintf("trace(n=%d,dur=%.0fs)", t.tr.Len(), t.tr.Duration())
}

// UtilizationRate computes the Poisson arrival rate λ that yields system
// utilization rho for a farm (paper Sec. III-D: rho =
// λ / (µ · nServers · nCores), so λ = rho · nServers · nCores / E[S]).
func UtilizationRate(rho float64, nServers, nCores int, meanServiceSec float64) float64 {
	if rho <= 0 || nServers <= 0 || nCores <= 0 || meanServiceSec <= 0 {
		return 0
	}
	return rho * float64(nServers) * float64(nCores) / meanServiceSec
}

// Standard service-time profiles from the paper's case studies.

// WebSearchService: latency-critical search with 5 ms mean service time
// (Sec. IV-B), exponentially distributed per the Poisson-based model.
func WebSearchService() dist.Sampler { return dist.Exponential{MeanValue: 0.005} }

// WebServingService: longer 120 ms mean service time (Sec. IV-B).
func WebServingService() dist.Sampler { return dist.Exponential{MeanValue: 0.120} }

// WikipediaService: 3–10 ms uniform task execution used by the
// provisioning study (Sec. IV-A).
func WikipediaService() dist.Sampler { return dist.Uniform{Lo: 0.003, Hi: 0.010} }

// JobFactory expands one arrival into a task DAG. NewJob allocates the
// job; newJob, what a Generator calls, builds it from the Generator's
// free list (a nil pool allocates, so NewJob is newJob with nil). Only
// this package's factories implement it.
type JobFactory interface {
	NewJob(id job.ID, now simtime.Time, r *rng.Source) *job.Job
	newJob(p *job.Pool, id job.ID, now simtime.Time, r *rng.Source) *job.Job
	String() string
}

// SingleTask builds one-task jobs with sampled service times — the shape
// used by case studies IV-A/B/C.
type SingleTask struct {
	Service dist.Sampler
}

// NewJob implements JobFactory.
func (f SingleTask) NewJob(id job.ID, now simtime.Time, r *rng.Source) *job.Job {
	return f.newJob(nil, id, now, r)
}

func (f SingleTask) newJob(p *job.Pool, id job.ID, now simtime.Time, r *rng.Source) *job.Job {
	size := simtime.FromSeconds(f.Service.Sample(r))
	if size <= 0 {
		size = simtime.Microsecond
	}
	return p.Single(id, now, size)
}

func (f SingleTask) String() string { return fmt.Sprintf("single(%v)", f.Service) }

// TwoTier builds app->db request pairs (paper Sec. III-C's web example).
type TwoTier struct {
	AppService dist.Sampler
	DBService  dist.Sampler
	Bytes      int64
}

// NewJob implements JobFactory.
func (f TwoTier) NewJob(id job.ID, now simtime.Time, r *rng.Source) *job.Job {
	return f.newJob(nil, id, now, r)
}

func (f TwoTier) newJob(p *job.Pool, id job.ID, now simtime.Time, r *rng.Source) *job.Job {
	app := simtime.FromSeconds(f.AppService.Sample(r))
	db := simtime.FromSeconds(f.DBService.Sample(r))
	return p.TwoTier(id, now, simtime.Max(app, simtime.Microsecond),
		simtime.Max(db, simtime.Microsecond), f.Bytes)
}

func (f TwoTier) String() string {
	return fmt.Sprintf("twotier(app=%v,db=%v,%dB)", f.AppService, f.DBService, f.Bytes)
}

// RandomDAG builds layered random DAGs with a fixed per-edge transfer
// size — the Sec. IV-D traffic model (tasks with known traffic patterns,
// 100 MB flows between servers).
type RandomDAG struct {
	Layers, MaxWidth, MaxDeps int
	MinSize, MaxSize          simtime.Time
	EdgeBytes                 int64
}

// NewJob implements JobFactory.
func (f RandomDAG) NewJob(id job.ID, now simtime.Time, r *rng.Source) *job.Job {
	return f.newJob(nil, id, now, r)
}

func (f RandomDAG) newJob(p *job.Pool, id job.ID, now simtime.Time, r *rng.Source) *job.Job {
	return p.RandomDAG(id, now, r, f.Layers, f.MaxWidth, f.MaxDeps,
		f.MinSize, f.MaxSize, f.EdgeBytes)
}

func (f RandomDAG) String() string {
	return fmt.Sprintf("randomdag(l=%d,w=%d,%dB)", f.Layers, f.MaxWidth, f.EdgeBytes)
}

// ScatterGather builds root -> N workers -> gather jobs (web-search
// shape over index shards).
type ScatterGather struct {
	Width                         int
	RootSize, WorkerSize, AggSize dist.Sampler
	Bytes                         int64
}

// NewJob implements JobFactory.
func (f ScatterGather) NewJob(id job.ID, now simtime.Time, r *rng.Source) *job.Job {
	return f.newJob(nil, id, now, r)
}

func (f ScatterGather) newJob(p *job.Pool, id job.ID, now simtime.Time, r *rng.Source) *job.Job {
	sz := func(s dist.Sampler) simtime.Time {
		return simtime.Max(simtime.FromSeconds(s.Sample(r)), simtime.Microsecond)
	}
	return p.ScatterGather(id, now, f.Width, sz(f.RootSize), sz(f.WorkerSize), sz(f.AggSize), f.Bytes)
}

func (f ScatterGather) String() string {
	return fmt.Sprintf("scattergather(w=%d,%dB)", f.Width, f.Bytes)
}
