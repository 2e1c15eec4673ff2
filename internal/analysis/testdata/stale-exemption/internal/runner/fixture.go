package runner // want "exemption holdcsim/internal/runner.StartStopwatch suppresses nothing"

// StartStopwatch no longer reads the clock, so the exemption naming it
// excuses nothing and must go.
func StartStopwatch() int { return 0 }
