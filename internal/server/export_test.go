package server

import (
	"reflect"

	"holdcsim/internal/power"
	"holdcsim/internal/stats"
)

// CorruptQueueCounterForTest skews the incremental queue counter
// without touching the underlying queue structures, seeding exactly the
// desync the invariant checker's queue-counter law exists to catch.
// Test-only: the production code has no path that moves the counter
// independently of the queues.
func (s *Server) CorruptQueueCounterForTest(d int) { s.queueLen += d }

// CorruptCoreDrawForTest skews core 0's cached power draw without
// touching its state — the stale cache the checker's power-cache law
// exists to catch.
func (s *Server) CorruptCoreDrawForTest(w float64) { s.cores[0].draw += w }

// PkgState reports the shallowest package C-state across sockets (PC6
// only when every socket is parked).
func (s *Server) PkgState() power.PkgCState {
	min := s.sockets[0]
	for _, st := range s.sockets[1:] {
		if st < min {
			min = st
		}
	}
	return min
}

// ForceSleep immediately starts the suspend transition if the server is
// idle — the state a delay timer reaches on expiry, at an instant the test
// chooses. It reports whether the transition was initiated.
func (s *Server) ForceSleep() bool {
	if s.failed || s.sstate != power.S0 || s.waking || s.entering ||
		s.busyCores > 0 || s.queueLen > 0 {
		return false
	}
	s.disarmSleep()
	s.enterSleep()
	return true
}

// CoreCompleted reports how many tasks core i has finished.
func (s *Server) CoreCompleted(i int) int64 { return s.cores[i].completed }

// Power reports the server's current total draw in watts.
func (s *Server) Power() float64 {
	return watts(&s.cpuMeter) + watts(&s.dramMeter) + watts(&s.platMeter)
}

// watts reads a meter's present draw. Nothing but a test asks for it, so
// the meter has no accessor and the test reads the unexported signal.
func watts(m *stats.EnergyMeter) float64 {
	return reflect.ValueOf(m).Elem().FieldByName("tw").FieldByName("value").Float()
}
