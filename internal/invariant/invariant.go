// Package invariant verifies conservation laws of a running simulation.
//
// The golden suite pins *outputs*; this package pins *physics*. A
// Checker subscribes to the scheduler's observation hooks and, at every
// dispatch boundary, verifies the cheap O(1) laws (monotonic virtual
// time, job-count conservation, non-negative load counters); every
// sampleEvery-th observation and at Finalize it runs the O(servers)
// deep scan and the end-of-run laws — task conservation, energy
// accounting closure, per-flow packet conservation, and the exact
// integral form of Little's law. The checker is observation-only: it
// never perturbs event order, rng streams, or any simulation state, so
// a checked run produces byte-identical output to an unchecked one.
//
// DESIGN.md Sec. 7 ("Invariant contract") documents each law and how to
// add one.
package invariant

import (
	"fmt"
	"math"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
	"holdcsim/internal/workload"
)

// Violation is one broken law.
type Violation struct {
	// Law names the violated law ("monotonic-time", "task-conservation",
	// "energy-closure", "non-negative-queues", "queue-counter",
	// "power-cache", "pending-within-commitment", "packet-conservation",
	// "little-exact", "little-ci", "reported-totals", "placement",
	// "lost-ledger", "scope-consistency").
	Law    string
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Law + ": " + v.Detail }

// Options tunes a Checker.
type Options struct {
	// Farm, when set, supplies the whole-farm incremental aggregates so
	// Finalize's task-conservation sums are O(1) instead of a walk over
	// every server. The farm must hold exactly the checked servers.
	Farm *server.Farm
	// Stationary additionally checks the statistical form of Little's
	// law at Finalize: |L − λW| within the 95% CI of the mean sojourn.
	// Only meaningful for runs long enough to be near steady state.
	Stationary bool
	// LostJobsLedger, when set, supplies an independent count of jobs
	// lost to failures (the fault injector's ledger). Finalize
	// cross-checks it against both the checker's own loss observations
	// and the scheduler's counter.
	LostJobsLedger func() int64
	// ScopeCheck, when set, verifies the fault injector's scope
	// consistency (a dead rack implies every owned member still down;
	// per-scope loss attribution sums to the crash-loss total). It runs
	// with every deep scan, full at Finalize only, reporting a
	// "scope-consistency" violation on a non-nil error.
	ScopeCheck func(full bool) error
}

// RelTol is the relative tolerance for floating-point closure laws.
const RelTol = 1e-9

// sampleEvery runs the deep scan once per this many observations; the
// scan always also runs at Finalize.
const sampleEvery = 64

// maxViolations caps recorded violations; further violations increment
// the suppressed counter.
const maxViolations = 32

// scanBudget caps how many servers one deep scan (and one Finalize
// energy pass) visits. A bounded scan drains the dirty set first
// (servers dispatched to since the last scan, in first-touch order),
// then spends the rest of the budget round-robin from a rotating
// cursor, so quiet servers are still revisited eventually. This is what
// keeps the checker O(1) per boundary on million-server farms.
const scanBudget = 256

// Checker observes one data center and accumulates violations. Attach
// wires it; Finalize runs the end-of-run laws. All methods run
// single-threaded on the engine's event loop, like the simulation
// itself.
type Checker struct {
	eng     *engine.Engine
	gen     *workload.Generator
	sched   *sched.Scheduler
	servers []*server.Server
	net     *network.Network
	opts    Options

	lastNow simtime.Time
	scanIn  int // observations until the next deep scan

	// Bounded-scan state: scanBudget is the per-scan cap (the constant;
	// tests lower it); dirty lists server positions dispatched to since
	// the last scan in first-touch order, dirtyBits is its membership
	// bitset, and cursor rotates background coverage across scans.
	scanBudget int
	dirty      []int32
	dirtyBits  []uint64
	cursor     int

	// Little's-law bookkeeping in exact integer nanoseconds: the area
	// under N(t) must equal the summed time-in-system of every job,
	// completed, lost, or still open, with no tolerance at all. Loss
	// events split the integral at the crash boundary: a lost job
	// contributes its partial sojourn (loss − arrive) exactly.
	inSystem      int64
	lastChange    simtime.Time
	jobNanoSecs   int64 // ∫ N(t) dt in job·ns
	arrived       int64
	completed     int64
	lost          int64
	sumArriveNs   int64 // Σ arrive over all arrivals
	sumSojournNs  int64 // Σ (finish − arrive) over completed
	sumLostNs     int64 // Σ (loss − arrive) over lost
	sumArrDoneNs  int64 // Σ arrive over completed
	sumArrLostNs  int64 // Σ arrive over lost
	sumSojournS   float64
	sumSojournSqS float64

	violations []Violation
	suppressed int
	finalized  bool
}

// Attach builds a checker and subscribes it to the scheduler's
// observation hooks. gen and net may be nil (no generator probe / no
// network); eng, s and servers are required. servers are the
// scheduler's, so servers[i] has ID i (sched.New refuses any other
// order), and a server's ID is its position in the dirty set.
func Attach(eng *engine.Engine, gen *workload.Generator, s *sched.Scheduler,
	servers []*server.Server, net *network.Network, opts Options) *Checker {
	c := &Checker{
		eng: eng, gen: gen, sched: s, servers: servers, net: net, opts: opts,
		scanIn:     sampleEvery,
		scanBudget: scanBudget,
		dirtyBits:  make([]uint64, (len(servers)+63)/64),
	}
	s.OnJobArrived(c.onArrive)
	s.OnJobDone(c.onDone)
	s.OnDispatch(c.onDispatch)
	s.OnJobLost(c.onLost)
	return c
}

// report records one violation, respecting the cap.
func (c *Checker) report(law, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.suppressed++
		return
	}
	c.violations = append(c.violations, Violation{Law: law, Detail: fmt.Sprintf(format, args...)})
}

// observe runs the per-boundary cheap laws and returns the clock. It
// sits on the scheduler's hot path: a countdown replaces a modulo, and
// everything else is two compares and two increments.
func (c *Checker) observe() simtime.Time {
	now := c.eng.Now()
	if now < c.lastNow {
		c.report("monotonic-time", "clock went backwards: %v after %v", now, c.lastNow)
	}
	c.lastNow = now
	if c.scanIn--; c.scanIn <= 0 {
		c.scanIn = sampleEvery
		c.deepScan()
	}
	return now
}

// settle advances the jobs-in-system integral to now.
func (c *Checker) settle(now simtime.Time) {
	if now > c.lastChange {
		c.jobNanoSecs += c.inSystem * int64(now-c.lastChange)
		c.lastChange = now
	}
}

// checkCounters is the O(1) job-conservation law, valid at every hook
// boundary: every generated job is completed, in the system, or lost to
// a failure.
func (c *Checker) checkCounters() {
	if c.gen == nil {
		return
	}
	gen := c.gen.Generated()
	done := c.sched.JobsCompleted()
	open := int64(c.sched.JobsInSystem())
	lost := c.sched.JobsLost()
	if gen != done+open+lost {
		c.report("task-conservation", "generated %d != completed %d + in-system %d + lost %d",
			gen, done, open, lost)
	}
}

func (c *Checker) onArrive(j *job.Job) {
	now := c.observe()
	c.settle(now)
	c.inSystem++
	c.arrived++
	c.sumArriveNs += int64(j.ArriveAt)
	if j.ArriveAt > now {
		c.report("monotonic-time", "job %d arrives at %v, after the clock %v", j.ID, j.ArriveAt, now)
	}
	c.checkCounters()
}

func (c *Checker) onDone(j *job.Job) {
	now := c.observe()
	c.settle(now)
	c.inSystem--
	c.completed++
	soj := j.FinishAt - j.ArriveAt
	if soj < 0 {
		c.report("monotonic-time", "job %d finished %v before arriving %v", j.ID, j.FinishAt, j.ArriveAt)
	}
	c.sumSojournNs += int64(soj)
	c.sumArrDoneNs += int64(j.ArriveAt)
	s := soj.Seconds()
	c.sumSojournS += s
	c.sumSojournSqS += s * s
	c.checkCounters()
}

// onLost observes a job retracted by a failure: it leaves the system at
// the loss instant, contributing its partial sojourn to the Little
// integral — the crash-boundary split that keeps the law exact under
// failures.
func (c *Checker) onLost(j *job.Job, reason sched.LostReason) {
	now := c.observe()
	c.settle(now)
	c.inSystem--
	c.lost++
	partial := now - j.ArriveAt
	if partial < 0 {
		c.report("monotonic-time", "job %d lost at %v before arriving %v", j.ID, now, j.ArriveAt)
	}
	c.sumLostNs += int64(partial)
	c.sumArrLostNs += int64(j.ArriveAt)
	c.checkCounters()
}

func (c *Checker) onDispatch(srv *server.Server, t *job.Task) {
	c.observe()
	c.markDirty(srv)
	if t.ServerID >= 0 && t.ServerID != srv.ID() {
		c.report("placement", "task %s placed on server %d, dispatched to %d", t.Name(), t.ServerID, srv.ID())
	}
	k := c.sched.Committed(srv.ID())
	if k < 0 {
		c.report("non-negative-queues", "server %d committed count %d at dispatch", srv.ID(), k)
	}
	// The task being dispatched is committed but not yet pending.
	if p := srv.PendingTasks(); p >= k {
		c.report("pending-within-commitment", "server %d holds %d pending tasks at dispatch, %d committed", srv.ID(), p, k)
	}
}

// Violations reports everything found so far (Finalize appends the
// end-of-run laws).
func (c *Checker) Violations() []Violation { return c.violations }

// Err folds the violations into a single error, nil when clean.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	msg := ""
	for i, v := range c.violations {
		if i > 0 {
			msg += "; "
		}
		msg += v.String()
	}
	if c.suppressed > 0 {
		msg += fmt.Sprintf(" (+%d suppressed)", c.suppressed)
	}
	return fmt.Errorf("invariant: %d violation(s): %s", len(c.violations), msg)
}

// markDirty records a server touched by a dispatch since the last deep
// scan, in first-touch order, so bounded scans look there first.
func (c *Checker) markDirty(srv *server.Server) {
	i := int32(srv.ID())
	if c.dirtyBits[i>>6]&(1<<(uint(i)&63)) != 0 {
		return
	}
	c.dirtyBits[i>>6] |= 1 << (uint(i) & 63)
	c.dirty = append(c.dirty, i)
}

func (c *Checker) isDirty(i int) bool {
	return c.dirtyBits[i>>6]&(1<<(uint(i)&63)) != 0
}

func (c *Checker) clearDirty() {
	for _, i := range c.dirty {
		c.dirtyBits[i>>6] &^= 1 << (uint(i) & 63)
	}
	c.dirty = c.dirty[:0]
}

// scanServer runs the per-server laws: counter non-negativity, core
// range, agreement between the incremental queue counter and a
// from-scratch recount of the queue structures, and between the cached
// core draws and the core states, and no more pending tasks than the
// scheduler has committed to the server.
func (c *Checker) scanServer(srv *server.Server) {
	q := srv.QueueLen()
	if q < 0 {
		c.report("non-negative-queues", "server %d queue length %d", srv.ID(), q)
	}
	if r := srv.RecountQueueLen(); q != r {
		c.report("queue-counter", "server %d incremental queue counter %d != recount %d", srv.ID(), q, r)
	}
	if srv.PowerCacheStale() {
		c.report("power-cache", "server %d cached core draws disagree with its core states", srv.ID())
	}
	if b := srv.BusyCores(); b < 0 || b > srv.Cores() {
		c.report("non-negative-queues", "server %d busy cores %d of %d", srv.ID(), b, srv.Cores())
	}
	k := c.sched.Committed(srv.ID())
	if k < 0 {
		c.report("non-negative-queues", "server %d committed count %d", srv.ID(), k)
	}
	if p := srv.PendingTasks(); p > k {
		c.report("pending-within-commitment", "server %d holds %d pending tasks, %d committed", srv.ID(), p, k)
	}
}

// deepScan runs the per-server laws over at most scanBudget servers —
// the dirty set first, then round-robin from the rotating cursor — plus
// the global-queue, scope, and network laws.
func (c *Checker) deepScan() {
	n := len(c.servers)
	if c.scanBudget >= n {
		for _, srv := range c.servers {
			c.scanServer(srv)
		}
		c.clearDirty()
	} else {
		for _, i := range c.dirty {
			c.scanServer(c.servers[i])
		}
		rem := c.scanBudget - len(c.dirty)
		for tries := 0; rem > 0 && tries < n; tries++ {
			i := c.cursor
			if c.cursor++; c.cursor >= n {
				c.cursor = 0
			}
			if c.isDirty(i) {
				continue // already scanned this round
			}
			c.scanServer(c.servers[i])
			rem--
		}
		c.clearDirty()
	}
	if q := c.sched.GlobalQueueLen(); q < 0 {
		c.report("non-negative-queues", "global queue length %d", q)
	}
	if c.opts.ScopeCheck != nil {
		if err := c.opts.ScopeCheck(c.finalized); err != nil {
			c.report("scope-consistency", "%v", err)
		}
	}
	// Flow and packet conservation hold at every callback boundary, in
	// both network models — not just at Finalize. (The loopback-transfer
	// bug this would have caught: BytesDelivered billed from a bare
	// closure with the transfer never counted open, so a scan between
	// schedule and tick saw delivered > sent.)
	c.checkNetwork()
}

// Finalize runs every end-of-run law at virtual time end and returns
// all violations found over the run's lifetime. It is idempotent: the
// laws run once, and repeated calls return the recorded violations
// without re-reporting them (a persistent defect would otherwise
// duplicate itself and burn the maxViolations cap).
func (c *Checker) Finalize(end simtime.Time) []Violation {
	if c.finalized {
		return c.violations
	}
	c.finalized = true
	if end < c.lastNow {
		c.report("monotonic-time", "finalize at %v before last observation %v", end, c.lastNow)
	}
	if now := c.eng.Now(); end < now {
		// The meters have advanced to the engine clock; query no earlier
		// so the time-dependent laws stay evaluable.
		end = now
	}
	c.settle(end)
	c.deepScan()
	c.checkCounters()

	// Task conservation, cross-checked against the scheduler's own
	// counters (the checker counts callbacks; the scheduler counts
	// admissions — they must agree).
	if c.arrived != c.completed+c.inSystem+c.lost {
		c.report("task-conservation", "observed %d arrivals != %d completed + %d open + %d lost",
			c.arrived, c.completed, c.inSystem, c.lost)
	}
	if got := c.sched.JobsCompleted(); got != c.completed {
		c.report("task-conservation", "scheduler completed %d, checker observed %d", got, c.completed)
	}
	if got := int64(c.sched.JobsInSystem()); got != c.inSystem {
		c.report("task-conservation", "scheduler in-system %d, checker observed %d", got, c.inSystem)
	}
	if got := c.sched.JobsLost(); got != c.lost {
		c.report("task-conservation", "scheduler lost %d, checker observed %d", got, c.lost)
	}
	if c.gen != nil {
		if gen := c.gen.Generated(); gen != c.arrived {
			c.report("task-conservation", "generator emitted %d, scheduler admitted %d", gen, c.arrived)
		}
	}
	// Lost-work cross-check: the fault injector's ledger — accumulated
	// through an independent path (crash return values plus loss
	// callbacks) — must agree with the checker's own loss count.
	if c.opts.LostJobsLedger != nil {
		if got := c.opts.LostJobsLedger(); got != c.lost {
			c.report("lost-ledger", "fault ledger lost %d jobs, checker observed %d", got, c.lost)
		}
	} else if c.lost != 0 {
		c.report("lost-ledger", "%d jobs lost with no fault ledger attached", c.lost)
	}
	// Task-level conservation: every task incarnation the scheduler
	// submitted is finished on its server, still pending there (queued,
	// reserved, or running), or was aborted by a failure (orphaned on a
	// crashed server — whether or not it was requeued as a fresh
	// incarnation — or retracted with a lost job).
	var tasksDone, tasksPending int64
	if f := c.opts.Farm; f != nil {
		// O(1): the farm maintains these sums incrementally at every
		// queue/core mutation, so Finalize need not walk a million
		// servers to close the books.
		tasksDone = f.TotalCompleted()
		tasksPending = f.TotalPending()
	} else {
		for _, srv := range c.servers {
			tasksDone += srv.CompletedTasks()
			tasksPending += int64(srv.PendingTasks())
		}
	}
	aborted := c.sched.TasksAborted()
	if dispatched := c.sched.TasksDispatched(); dispatched != tasksDone+tasksPending+aborted {
		c.report("task-conservation", "tasks dispatched %d != finished %d + pending %d + aborted %d",
			dispatched, tasksDone, tasksPending, aborted)
	}

	// Little's law, exact integral form, split at loss boundaries: the
	// area under N(t) equals the total time-in-system of completed jobs,
	// plus the partial time of jobs lost to failures (up to the loss
	// instant), plus the partial time of jobs still open at end.
	// Integer nanoseconds — zero tolerance.
	openPartial := c.inSystem*int64(end) - (c.sumArriveNs - c.sumArrDoneNs - c.sumArrLostNs)
	if c.jobNanoSecs != c.sumSojournNs+c.sumLostNs+openPartial {
		c.report("little-exact", "∫N dt = %d job·ns, but sojourns %d + lost partials %d + open partial %d = %d",
			c.jobNanoSecs, c.sumSojournNs, c.sumLostNs, openPartial,
			c.sumSojournNs+c.sumLostNs+openPartial)
	}

	c.checkEnergy(end)
	c.checkNetwork()
	if c.opts.Stationary {
		c.checkLittleCI(end)
	}
	return c.violations
}

// checkEnergy verifies per-server energy accounting: residency
// fractions must sum to 1 (down time included), and every component's
// energy must be finite, non-negative, and within the profile's
// physical power envelope — an envelope that excludes down-time
// residency, since a crashed server draws nothing. Billing any power
// during an outage therefore breaks the law. On farms larger than
// scanBudget the pass samples budget-many servers from the rotating
// cursor rather than walking all of them.
func (c *Checker) checkEnergy(end simtime.Time) {
	n := len(c.servers)
	if c.scanBudget >= n {
		for _, srv := range c.servers {
			c.checkServerEnergy(srv, end)
		}
		return
	}
	for k := 0; k < c.scanBudget; k++ {
		i := c.cursor
		if c.cursor++; c.cursor >= n {
			c.cursor = 0
		}
		c.checkServerEnergy(c.servers[i], end)
	}
}

// checkServerEnergy runs the energy-closure laws for one server.
func (c *Checker) checkServerEnergy(srv *server.Server, end simtime.Time) {
	downFrac := 0.0
	fr := srv.Residency().FractionsTo(end)
	if len(fr) > 0 {
		// Iterate states sorted, not in map order: the violation list and
		// the float accumulation into sum must replay byte-identically
		// (the determinism check caught this as the report order depending
		// on map iteration when more than one fraction is negative).
		sum := 0.0
		for _, s := range stats.SortedStates(fr) {
			f := fr[s]
			if f < -RelTol {
				c.report("energy-closure", "server %d negative residency fraction %g", srv.ID(), f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e3*RelTol {
			c.report("energy-closure", "server %d residency fractions sum to %.12g", srv.ID(), sum)
		}
		downFrac = fr[power.StateDown]
		if downFrac < 0 {
			downFrac = 0
		} else if downFrac > 1 {
			downFrac = 1
		}
	}
	cpu, dram, plat := srv.CPUEnergyTo(end), srv.DRAMEnergyTo(end), srv.PlatformEnergyTo(end)
	total := srv.EnergyTo(end)
	for _, e := range [...]struct {
		name string
		j    float64
	}{{"cpu", cpu}, {"dram", dram}, {"platform", plat}, {"total", total}} {
		if math.IsNaN(e.j) || math.IsInf(e.j, 0) || e.j < 0 {
			c.report("energy-closure", "server %d %s energy %g J", srv.ID(), e.name, e.j)
		}
	}
	if !closeRel(total, cpu+dram+plat, RelTol) {
		c.report("energy-closure", "server %d total %g J != components %g J",
			srv.ID(), total, cpu+dram+plat)
	}
	// Envelope over up-time only: down residency contributes no
	// joules. Healthy servers keep the strict pre-fault tolerance;
	// only a server that actually spent time down gets slack for the
	// float division in its residency fractions — and any real
	// down-time billing (idle power alone is tens of watts) exceeds
	// that slack by orders of magnitude.
	tol, slack := RelTol, 0.0
	if downFrac > 0 {
		tol, slack = 1e3*RelTol, 1e-6
	}
	if cap := powerCap(srv) * end.Seconds() * (1 - downFrac); end > 0 &&
		total > cap*(1+tol)+slack {
		c.report("energy-closure", "server %d energy %g J exceeds up-time power envelope %g J (down %.3g)",
			srv.ID(), total, cap, downFrac)
	}
}

// powerCap reports an upper bound on one server's instantaneous draw:
// every core at its most expensive state (highest P-state scale or a
// core-level wake transition), every package powered, DRAM active,
// platform on — or a system-level transition, whichever bills higher.
func powerCap(srv *server.Server) float64 {
	p := srv.Profile()
	perCore := p.CoreActive
	for _, ps := range p.PStates {
		if w := p.CoreActive * ps.PowerScale; w > perCore {
			perCore = w
		}
	}
	for _, t := range [...]float64{p.WakeC1.Watts, p.WakeC3.Watts, p.WakeC6.Watts, p.WakePC6.Watts} {
		if t > perCore {
			perCore = t
		}
	}
	cap := float64(p.Cores)*perCore + float64(p.SocketCount())*p.PkgPC0 +
		p.DRAMActive + p.PlatformS0
	for _, t := range [...]float64{p.WakeS3.Watts, p.SleepEntry.Watts} {
		if t+p.DRAMActive+p.PlatformS0+p.PkgPC0 > cap {
			cap = t + p.DRAMActive + p.PlatformS0 + p.PkgPC0
		}
	}
	return cap
}

// checkNetwork verifies flow and packet conservation.
func (c *Checker) checkNetwork() {
	if c.net == nil {
		return
	}
	st := c.net.Stats()
	if st.FlowsStarted-st.FlowsCompleted != int64(c.net.ActiveFlows()) {
		c.report("packet-conservation", "flows: started %d − completed %d != active %d",
			st.FlowsStarted, st.FlowsCompleted, c.net.ActiveFlows())
	}
	if st.PacketsDelivered+st.PacketsDropped > st.PacketsSent {
		c.report("packet-conservation", "packets: delivered %d + dropped %d > sent %d",
			st.PacketsDelivered, st.PacketsDropped, st.PacketsSent)
	}
	if c.net.OpenPacketTransfers() == 0 &&
		st.PacketsDelivered+st.PacketsDropped != st.PacketsSent {
		c.report("packet-conservation", "drained, but delivered %d + dropped %d != sent %d",
			st.PacketsDelivered, st.PacketsDropped, st.PacketsSent)
	}
	if d := c.net.Drops(); d != st.PacketsDropped {
		c.report("packet-conservation", "egress drop counters %d != stats drops %d", d, st.PacketsDropped)
	}
	if st.FlowsFailed < 0 || st.FlowsFailed > st.FlowsCompleted {
		c.report("packet-conservation", "flows failed %d outside [0, completed %d]",
			st.FlowsFailed, st.FlowsCompleted)
	}
	if st.BytesDelivered < 0 {
		c.report("packet-conservation", "negative bytes delivered %d", st.BytesDelivered)
	}
}

// checkLittleCI verifies the statistical Little's law L = λW on a
// stationary run: the gap (which the exact law shows equals the open
// jobs' boundary contribution divided by the horizon) must fall inside
// the 95% confidence interval of λ·W̄.
func (c *Checker) checkLittleCI(end simtime.Time) {
	n := c.completed
	sec := end.Seconds()
	if n < 30 || sec <= 0 {
		return // too few samples for a CI to mean anything
	}
	w := c.sumSojournS / float64(n)
	varS := (c.sumSojournSqS - float64(n)*w*w) / float64(n-1)
	if varS < 0 {
		varS = 0
	}
	lambda := float64(n) / sec
	l := float64(c.jobNanoSecs) / 1e9 / sec
	half := 1.96 * math.Sqrt(varS/float64(n)) * lambda
	if gap := math.Abs(l - lambda*w); gap > half+RelTol*(1+l) {
		c.report("little-ci", "L=%.6g vs λW=%.6g: gap %.3g outside 95%% CI half-width %.3g (n=%d)",
			l, lambda*w, gap, half, n)
	}
}

// ReportedTotals carries the aggregates a results collector reports,
// for closure checking against an independent re-summation of the
// underlying meters.
type ReportedTotals struct {
	End               simtime.Time
	JobsGenerated     int64
	JobsCompleted     int64
	JobsLost          int64
	ServerEnergyJ     float64
	CPUEnergyJ        float64
	DRAMEnergyJ       float64
	PlatformEnergyJ   float64
	NetworkEnergyJ    float64
	MeanServerPowerW  float64
	MeanNetworkPowerW float64
	// Residency maps state label to mean fraction across servers.
	Residency map[string]float64
}

// VerifyTotals checks reported aggregates against the meters: each
// component total must match the per-server sum within RelTol, mean
// power must equal energy over the horizon, and mean residency
// fractions must sum to 1.
func (c *Checker) VerifyTotals(rt ReportedTotals) {
	end := rt.End
	var cpu, dram, plat float64
	for _, srv := range c.servers {
		cpu += srv.CPUEnergyTo(end)
		dram += srv.DRAMEnergyTo(end)
		plat += srv.PlatformEnergyTo(end)
	}
	for _, cmp := range [...]struct {
		name            string
		reported, meter float64
	}{
		{"cpu", rt.CPUEnergyJ, cpu},
		{"dram", rt.DRAMEnergyJ, dram},
		{"platform", rt.PlatformEnergyJ, plat},
		{"server-total", rt.ServerEnergyJ, cpu + dram + plat},
	} {
		if !closeRel(cmp.reported, cmp.meter, RelTol) {
			c.report("reported-totals", "%s energy reported %g J, meters sum to %g J",
				cmp.name, cmp.reported, cmp.meter)
		}
	}
	if sec := end.Seconds(); sec > 0 {
		if !closeRel(rt.MeanServerPowerW*sec, rt.ServerEnergyJ, RelTol) {
			c.report("reported-totals", "mean power %g W x %g s != energy %g J",
				rt.MeanServerPowerW, sec, rt.ServerEnergyJ)
		}
	}
	if c.net != nil {
		if !closeRel(rt.NetworkEnergyJ, c.net.NetworkEnergyTo(end), RelTol) {
			c.report("reported-totals", "network energy reported %g J, meters sum to %g J",
				rt.NetworkEnergyJ, c.net.NetworkEnergyTo(end))
		}
		if sec := end.Seconds(); sec > 0 {
			if !closeRel(rt.MeanNetworkPowerW*sec, rt.NetworkEnergyJ, RelTol) {
				c.report("reported-totals", "mean network power %g W x %g s != energy %g J",
					rt.MeanNetworkPowerW, sec, rt.NetworkEnergyJ)
			}
		}
	}
	if len(rt.Residency) > 0 {
		// Sum in sorted-state order: float addition is not associative, so
		// a map-order sum could flip the verdict from run to run.
		sum := 0.0
		for _, s := range stats.SortedStates(rt.Residency) {
			sum += rt.Residency[s]
		}
		if math.Abs(sum-1) > 1e3*RelTol {
			c.report("reported-totals", "mean residency fractions sum to %.12g", sum)
		}
	}
	if rt.JobsCompleted+rt.JobsLost > rt.JobsGenerated {
		c.report("reported-totals", "completed %d + lost %d > generated %d",
			rt.JobsCompleted, rt.JobsLost, rt.JobsGenerated)
	}
	if rt.JobsLost != c.lost {
		c.report("reported-totals", "reported %d jobs lost, checker observed %d", rt.JobsLost, c.lost)
	}
}

// closeRel reports whether a and b agree within rel, scaled by their
// magnitude (exact for both zero).
func closeRel(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Abs(a)
	if s := math.Abs(b); s > scale {
		scale = s
	}
	return math.Abs(a-b) <= rel*scale
}
