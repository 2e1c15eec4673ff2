package server

import (
	"math"
	"testing"

	"holdcsim/internal/power"
)

func TestPerCoreDVFS(t *testing.T) {
	prof := power.XeonE5_2680()
	eng, s := newTestServer(t, func(c *Config) {
		// Freeze the governor so idle draws stay at C0-idle and the
		// power delta comes from the P-state alone.
		c.IdleToC1 = -1
		c.IdleToC3 = -1
		c.IdleToC6 = -1
		c.PkgC6Enabled = false
	})
	eng.RunUntil(simtimeMillisecond)
	base := watts(&s.cpuMeter)
	wantBase := 10*prof.CoreIdle + prof.PkgPC0
	if math.Abs(base-wantBase) > 1e-9 {
		t.Fatalf("base CPU power = %v, want %v", base, wantBase)
	}
	// Slowing one idle core does not change idle draw (P-state scales
	// active power only), but the core's PState must change.
	if err := s.SetCorePState(3, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.cores[3].PState().Name; got != "P3" {
		t.Errorf("core 3 P-state = %s, want P3", got)
	}
	if got := s.cores[0].PState().Name; got != "P0" {
		t.Errorf("core 0 P-state = %s, want P0", got)
	}
	// Errors.
	if err := s.SetCorePState(99, 0); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := s.SetCorePState(0, 99); err == nil {
		t.Error("out-of-range P-state accepted")
	}
}

// Local aliases keep the test body terse.
const (
	simtimeMillisecond = 1000 * 1000
	simtimeSecond      = 1000 * simtimeMillisecond
)
