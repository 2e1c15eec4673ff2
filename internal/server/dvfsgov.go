package server

import (
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
)

// DVFSGovernor adjusts a server's P-state at runtime from observed core
// utilization — the "performance states can be configured to determine
// the speed of instruction execution at runtime (i.e., DVFS)" knob of
// paper Sec. III-A, packaged as an ondemand-style controller: every
// dvfsInterval, utilization above dvfsUp steps the frequency up (lower
// P-state index), below dvfsDown steps it down.
type DVFSGovernor struct {
	srv *Server

	busy     stats.TimeWeighted
	lastInt  float64
	lastEval simtime.Time
	running  bool
}

// The governor's evaluation period and target utilization band.
const (
	dvfsInterval = 10 * simtime.Millisecond
	dvfsUp       = 0.80
	dvfsDown     = 0.40
)

// NewDVFSGovernor attaches an ondemand-style governor to a server with a
// 10 ms evaluation period and a 40–80% utilization band. Call Start to
// begin.
func NewDVFSGovernor(srv *Server) *DVFSGovernor {
	return &DVFSGovernor{srv: srv}
}

// Start begins periodic evaluation. The server starts at its current
// P-state (index 0, nominal, unless changed).
func (g *DVFSGovernor) Start() {
	if g.running {
		return
	}
	g.running = true
	if g.srv.ext == nil {
		g.srv.ext = new(serverExt)
	}
	g.srv.ext.onBusyChange = func(now simtime.Time, busy int) {
		g.busy.Set(now, float64(busy))
	}
	g.busy.Set(g.srv.farm.eng.Now(), float64(g.srv.BusyCores()))
	g.lastEval = g.srv.farm.eng.Now()
	g.srv.farm.eng.Every(g.lastEval+dvfsInterval, dvfsInterval, simtime.Forever, g.tick)
}

func (g *DVFSGovernor) tick() {
	now := g.srv.farm.eng.Now()
	integral := g.busy.IntegralTo(now)
	window := (now - g.lastEval).Seconds()
	util := 0.0
	if window > 0 {
		util = (integral - g.lastInt) / window / float64(g.srv.Cores())
	}
	g.lastInt = integral
	g.lastEval = now

	p := int(g.srv.pstateIdx)
	switch {
	case util > dvfsUp && p > 0:
		_ = g.srv.SetPState(p - 1)
	case util < dvfsDown && p < len(g.srv.cfg.Profile.PStates)-1:
		_ = g.srv.SetPState(p + 1)
	}
}
