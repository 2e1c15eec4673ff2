// Package power implements HolDCSim's hierarchical ACPI-based power model
// (paper Secs. III-A, III-F). For servers: core C-states; package
// C-states PC0 and PC6 per socket (a socket parks in PC6 once every one
// of its cores is in C6); the system states S0 and S3, suspend-to-RAM,
// the paper's "system sleep" and the one sleep state its case studies
// drive; and P-states (DVFS, one per server). For switches:
// Active/LPI/Off port states and line-card active, sleep and wake draws,
// with ports at one rate (no adaptive link rate).
// Profiles carry per-state power draws and transition latencies; the
// server and switch modules drive the state machines and integrate
// energy through stats.EnergyMeter.
package power

import "holdcsim/internal/simtime"

// CState is a core low-power state. Deeper states save more power but
// cost more wake latency.
type CState uint8

// Core C-states, shallow to deep.
const (
	C0 CState = iota // executing or idle-active
	C1               // halt
	C3               // deep sleep, caches flushed
	C6               // power gated
)

// Server residency states, the paper's Fig. 8 legend, plus StateDown,
// the fault model's addition: a crashed server draws nothing and is
// billed to "Down" until it recovers.
const (
	StateActive   = "Active"
	StateWakeUp   = "Wake-up"
	StateIdle     = "Idle"
	StatePkgC6    = "PkgC6"
	StateSysSleep = "SysSleep"
	StateDown     = "Down"
)

// ServerStates is the residency states' one name table, in the index
// order a server tracks its state by and internal/modelcov numbers
// residency transitions in.
var ServerStates = [...]string{StateActive, StateWakeUp, StateIdle, StatePkgC6,
	StateSysSleep, StateDown}

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

// Transition describes one power-state move: how long it takes and the
// draw while in flight. Wake transitions typically burn near-active
// power while delivering no work — the core inefficiency that delay
// timers (Sec. IV-B) exist to manage.
type Transition struct {
	Latency simtime.Time
	Watts   float64
}
