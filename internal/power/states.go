// Package power implements HolDCSim's hierarchical ACPI-based power model
// (paper Secs. III-A, III-F): core C-states, package C-states, system
// S-states and P-states (DVFS) for servers, and Active/LPI/Off port
// states, Active/Sleep/Off line-card states and adaptive link rates for
// switches. Profiles carry per-state power draws and transition
// latencies; the server and switch modules drive the state machines and
// integrate energy through stats.EnergyMeter.
package power

import (
	"fmt"

	"holdcsim/internal/simtime"
)

// CState is a core low-power state. Deeper states save more power but
// cost more wake latency.
type CState int

// Core C-states, shallow to deep.
const (
	C0 CState = iota // executing or idle-active
	C1               // halt
	C3               // deep sleep, caches flushed
	C6               // power gated
)

// String implements fmt.Stringer.
func (c CState) String() string {
	switch c {
	case C0:
		return "C0"
	case C1:
		return "C1"
	case C3:
		return "C3"
	case C6:
		return "C6"
	}
	return fmt.Sprintf("C(%d)", int(c))
}

// PkgCState is a package (uncore) low-power state.
type PkgCState int

// Package C-states, shallow to deep. The package may enter PC6 only when
// every core is in C6.
const (
	PC0 PkgCState = iota // package active
	PC2                  // clocks gated
	PC6                  // package power gated
)

// String implements fmt.Stringer.
func (p PkgCState) String() string {
	switch p {
	case PC0:
		return "PC0"
	case PC2:
		return "PC2"
	case PC6:
		return "PC6"
	}
	return fmt.Sprintf("PC(%d)", int(p))
}

// SState is an ACPI system sleep state.
type SState int

// System states used by the simulator. S3 is "system sleep"
// (suspend-to-RAM) in the paper's case studies; S5 is soft-off.
const (
	S0 SState = iota // working
	S3               // suspend to RAM
	S5               // soft off
)

// String implements fmt.Stringer.
func (s SState) String() string {
	switch s {
	case S0:
		return "S0"
	case S3:
		return "S3"
	case S5:
		return "S5"
	}
	return fmt.Sprintf("S(%d)", int(s))
}

// PState is a DVFS performance state: a frequency/voltage operating
// point. Speed is the performance ratio relative to nominal (1.0);
// PowerScale multiplies the core's dynamic power (≈ cubic in frequency
// for voltage-frequency scaling).
type PState struct {
	Name       string
	Speed      float64
	PowerScale float64
}

// DefaultPStates returns a typical 4-point DVFS ladder. PowerScale
// follows the cubic rule normalized to the nominal point.
func DefaultPStates() []PState {
	mk := func(name string, speed float64) PState {
		return PState{Name: name, Speed: speed, PowerScale: speed * speed * speed}
	}
	return []PState{
		mk("P0", 1.0), // turbo/nominal
		mk("P1", 0.85),
		mk("P2", 0.70),
		mk("P3", 0.55),
	}
}

// PortState is a switch port power state (paper Sec. III-B): active,
// Low Power Idle per IEEE 802.3az, or off.
type PortState int

// Port states.
const (
	PortActive PortState = iota
	PortLPI
	PortOff
)

// String implements fmt.Stringer.
func (p PortState) String() string {
	switch p {
	case PortActive:
		return "Active"
	case PortLPI:
		return "LPI"
	case PortOff:
		return "Off"
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// LineCardState is a switch line-card power state.
type LineCardState int

// Line-card states.
const (
	LineCardActive LineCardState = iota
	LineCardSleep
	LineCardOff
)

// String implements fmt.Stringer.
func (l LineCardState) String() string {
	switch l {
	case LineCardActive:
		return "Active"
	case LineCardSleep:
		return "Sleep"
	case LineCardOff:
		return "Off"
	}
	return fmt.Sprintf("LineCard(%d)", int(l))
}

// Transition describes one power-state move: how long it takes and the
// draw while in flight. Wake transitions typically burn near-active
// power while delivering no work — the core inefficiency that delay
// timers (Sec. IV-B) exist to manage.
type Transition struct {
	Latency simtime.Time
	Watts   float64
}
