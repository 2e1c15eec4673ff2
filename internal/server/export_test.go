package server

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
