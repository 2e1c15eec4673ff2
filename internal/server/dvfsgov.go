package server

import (
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
)

// DVFSGovernor adjusts a server's P-state at runtime from observed core
// utilization — the "performance states can be configured to determine
// the speed of instruction execution at runtime (i.e., DVFS)" knob of
// paper Sec. III-A, packaged as an ondemand-style controller: utilization
// above UpThreshold steps the frequency up (lower P-state index), below
// DownThreshold steps it down.
type DVFSGovernor struct {
	srv *Server

	// Interval between evaluations.
	Interval simtime.Time
	// UpThreshold and DownThreshold bound the target utilization band.
	UpThreshold   float64
	DownThreshold float64

	busy     *stats.TimeWeighted
	lastInt  float64
	lastEval simtime.Time
	pidx     int
	running  bool

	// Steps counts P-state changes, for diagnostics.
	Steps int64
}

// NewDVFSGovernor attaches an ondemand-style governor to a server with a
// 10 ms evaluation period and a 40–80% utilization band. Call Start to
// begin.
func NewDVFSGovernor(srv *Server) *DVFSGovernor {
	g := &DVFSGovernor{
		srv:           srv,
		Interval:      10 * simtime.Millisecond,
		UpThreshold:   0.80,
		DownThreshold: 0.40,
		busy:          stats.NewTimeWeighted("dvfs-busy"),
	}
	return g
}

// Start begins periodic evaluation. The server starts at its current
// P-state (index 0, nominal, unless changed).
func (g *DVFSGovernor) Start() {
	if g.running {
		return
	}
	g.running = true
	g.srv.onBusyChange = func(now simtime.Time, busy int) {
		g.busy.Set(now, float64(busy))
	}
	g.busy.Set(g.srv.eng.Now(), float64(g.srv.BusyCores()))
	g.lastEval = g.srv.eng.Now()
	g.srv.eng.Every(g.lastEval+g.Interval, g.Interval, simtime.Forever, g.tick)
}

func (g *DVFSGovernor) tick() {
	now := g.srv.eng.Now()
	integral := g.busy.IntegralTo(now)
	window := (now - g.lastEval).Seconds()
	util := 0.0
	if window > 0 {
		util = (integral - g.lastInt) / window / float64(g.srv.Cores())
	}
	g.lastInt = integral
	g.lastEval = now

	nStates := len(g.srv.prof.PStates)
	switch {
	case util > g.UpThreshold && g.pidx > 0:
		g.pidx--
		g.Steps++
		_ = g.srv.SetPState(g.pidx)
	case util < g.DownThreshold && g.pidx < nStates-1:
		g.pidx++
		g.Steps++
		_ = g.srv.SetPState(g.pidx)
	}
}
