// Package server implements HolDCSim's server architecture (paper
// Sec. III-A): multi-core (optionally heterogeneous) servers with local
// task queues, a local scheduler, and a hierarchical ACPI power
// controller spanning core C-states, package C-states and system sleep
// states, including the delay-timer mechanism of Sec. IV-B.
package server

import (
	"fmt"

	"holdcsim/internal/enum"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

// QueueMode selects the local queueing discipline (Sec. II cites Li et
// al. [37] on the performance impact of unified vs per-core queues).
type QueueMode int

// Local queue modes.
const (
	// QueueUnified buffers tasks in one FIFO; any core that frees up
	// pulls the head.
	QueueUnified QueueMode = iota
	// QueuePerCore assigns each task to a core queue on arrival
	// (shortest queue first) and cores serve only their own queue.
	QueuePerCore
)

var queueModeNames = []string{QueueUnified: "unified", QueuePerCore: "per-core"}

// String implements fmt.Stringer.
func (m QueueMode) String() string { return enum.String(m, queueModeNames, "QueueMode") }

// Valid reports whether m is a named mode.
func (m QueueMode) Valid() bool { return enum.Valid(m, queueModeNames) }

// MarshalText implements encoding.TextMarshaler (scenario-file codec).
func (m QueueMode) MarshalText() ([]byte, error) {
	return enum.Marshal(m, queueModeNames, "queue mode")
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *QueueMode) UnmarshalText(b []byte) error {
	return enum.Unmarshal(b, m, queueModeNames, "queue mode")
}

// Config parameterizes one server instance.
type Config struct {
	// Profile supplies power figures and the core count. Required.
	Profile *power.ServerProfile

	// QueueMode selects the local scheduler's queueing discipline.
	QueueMode QueueMode

	// CoreSpeeds optionally gives per-core speed ratios for
	// heterogeneous processors (len must equal Profile.Cores).
	// Nil means all cores run at 1.0.
	CoreSpeeds []float64

	// Idle governor thresholds: time spent idle before a core is
	// promoted into the next deeper C-state. A negative value disables
	// that state. Zero promotes immediately.
	IdleToC1 simtime.Time
	IdleToC3 simtime.Time
	IdleToC6 simtime.Time

	// PkgC6Enabled allows the package to enter PC6 once every core is
	// in C6.
	PkgC6Enabled bool

	// DelayTimerEnabled arms a server-level delay timer: after the
	// server has been completely idle for DelayTimer, it suspends to RAM
	// (S3, the paper's "system sleep"; Sec. IV-B). Zero DelayTimer
	// sleeps immediately on idle.
	DelayTimerEnabled bool
	DelayTimer        simtime.Time
}

// DefaultConfig returns a config with the common idle governor (C1
// immediately, C3 after 100 µs, C6 after 1 ms), package C6 enabled, and
// no delay timer (Active-Idle behaviour at the system level).
func DefaultConfig(profile *power.ServerProfile) Config {
	return Config{
		Profile:      profile,
		QueueMode:    QueueUnified,
		IdleToC1:     0,
		IdleToC3:     100 * simtime.Microsecond,
		IdleToC6:     1 * simtime.Millisecond,
		PkgC6Enabled: true,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Profile == nil {
		return fmt.Errorf("server: config needs a power profile")
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.CoreSpeeds != nil && len(c.CoreSpeeds) != c.Profile.Cores {
		return fmt.Errorf("server: %d core speeds for %d cores",
			len(c.CoreSpeeds), c.Profile.Cores)
	}
	for i, s := range c.CoreSpeeds {
		if s <= 0 {
			return fmt.Errorf("server: core %d speed %g must be positive", i, s)
		}
	}
	if c.DelayTimerEnabled && c.DelayTimer < 0 {
		return fmt.Errorf("server: negative delay timer %v", c.DelayTimer)
	}
	return nil
}
