package server

// CorruptQueueCounterForTest skews the incremental queue counter
// without touching the underlying queue structures, seeding exactly the
// desync the invariant checker's queue-counter law exists to catch.
// Test-only: the production code has no path that moves the counter
// independently of the queues.
func (s *Server) CorruptQueueCounterForTest(d int) { s.queueLen += int32(d) }

// CorruptCoreDrawForTest skews core 0's cached power draw without
// touching its state — the stale cache the checker's power-cache law
// exists to catch.
func (s *Server) CorruptCoreDrawForTest(w float64) { s.cores[0].draw += w }

// PkgC6 reports whether the whole package is in C6: every socket
// parked.
func (s *Server) PkgC6() bool {
	return s.parkedSockets == 1<<s.cfg.Profile.SocketCount()-1
}

// ForceSleep immediately starts the suspend transition if the server is
// idle — the state a delay timer reaches on expiry, at an instant the test
// chooses. It reports whether the transition was initiated.
func (s *Server) ForceSleep() bool {
	if s.failed || s.suspended || s.waking || s.entering ||
		s.busyCores > 0 || s.queueLen > 0 {
		return false
	}
	s.disarmSleep()
	s.enterSleep()
	return true
}

// CoreWorked reports whether core i has run a task: it is running one,
// or went idle after one (a core that never ran one has been idle since
// the farm built it, at time 0).
func (s *Server) CoreWorked(i int) bool {
	c := &s.cores[i]
	return c.busy || c.idleStart > 0
}

// Power reports the server's current total draw in watts.
func (s *Server) Power() float64 {
	return s.meters.watts[mCPU] + s.meters.watts[mDRAM] + s.meters.watts[mPlatform]
}

// plannerIdx is the index of the server's entry in its farm's sleep
// planner heap, -1 when unarmed.
func (s *Server) plannerIdx() int32 { return s.farm.planner.idx[s.id] }
