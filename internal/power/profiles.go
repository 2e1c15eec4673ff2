package power

import (
	"fmt"

	"holdcsim/internal/simtime"
)

// ServerProfile carries every per-state power figure and transition cost
// for one server model. The reference numbers follow the paper's
// validation platform: a 10-core Intel Xeon E5-2680-class server measured
// through RAPL/IPMI, split into CPU (cores + package), DRAM, and platform
// (fans, PSU, disks) components so Fig. 9's breakdown can be reproduced.
type ServerProfile struct {
	Name string

	// Cores is the total core count across all sockets; Sockets is the
	// number of processor packages (0 means 1). Cores must divide evenly
	// among sockets. Package C-state power figures are per socket.
	Cores   int
	Sockets int
	// Per-core draw (watts) by C-state. CoreActive is C0 executing at
	// nominal frequency; CoreIdle is C0 idling (no instruction stream).
	CoreActive float64
	CoreIdle   float64
	CoreC1     float64
	CoreC3     float64
	CoreC6     float64

	// Package/uncore draw: PC0 (package active) and PC6 (power gated).
	PkgPC0 float64
	PkgPC6 float64

	// DRAM draw: active (any core busy), idle (S0, no core busy),
	// self-refresh (S3).
	DRAMActive      float64
	DRAMIdle        float64
	DRAMSelfRefresh float64

	// Platform draw (fans, PSU overhead, disk, NIC) by system state.
	PlatformS0 float64
	PlatformS3 float64

	// Wake transitions (deeper C-state entry is effectively immediate at
	// this abstraction level, matching the paper's treatment).
	WakeC1  Transition
	WakeC3  Transition
	WakeC6  Transition
	WakePC6 Transition // package C6 exit, < 1 ms in the paper
	WakeS3  Transition // suspend-to-RAM resume: seconds at high draw

	// SleepEntry is the system suspend transition (flush, device
	// quiesce, context save): seconds at near-idle draw. Entry cost is
	// what makes over-aggressive delay timers expensive — it is paid on
	// every sleep, productive or not.
	SleepEntry Transition

	PStates []PState
}

// What a server's compact record can index: one bit per socket for its
// package state, a 16-bit core id and an 8-bit P-state index.
const (
	maxSockets = 64
	maxCores   = 1 << 16
	maxPStates = 1 << 8
)

// Validate checks structural sanity: positive core count, monotone
// C-state draws, and nonnegative transitions.
func (p *ServerProfile) Validate() error {
	if p.Cores <= 0 || p.Cores > maxCores {
		return fmt.Errorf("power: profile %q: %d cores, want 1..%d", p.Name, p.Cores, maxCores)
	}
	if p.Sockets < 0 || p.Sockets > maxSockets {
		return fmt.Errorf("power: profile %q: %d sockets, want 0..%d", p.Name, p.Sockets, maxSockets)
	}
	if s := p.SocketCount(); p.Cores%s != 0 {
		return fmt.Errorf("power: profile %q: %d cores do not divide into %d sockets",
			p.Name, p.Cores, s)
	}
	if !(p.CoreActive >= p.CoreIdle && p.CoreIdle >= p.CoreC1 &&
		p.CoreC1 >= p.CoreC3 && p.CoreC3 >= p.CoreC6 && p.CoreC6 >= 0) {
		return fmt.Errorf("power: profile %q: core C-state draws not monotone", p.Name)
	}
	if !(p.PkgPC0 >= p.PkgPC6 && p.PkgPC6 >= 0) {
		return fmt.Errorf("power: profile %q: package C-state draws not monotone", p.Name)
	}
	if p.WakeS3.Latency < 0 || p.WakeC6.Latency < 0 || p.WakePC6.Latency < 0 ||
		p.SleepEntry.Latency < 0 {
		return fmt.Errorf("power: profile %q: negative transition latency", p.Name)
	}
	if len(p.PStates) == 0 || len(p.PStates) > maxPStates {
		return fmt.Errorf("power: profile %q: %d P-states, want 1..%d", p.Name, len(p.PStates), maxPStates)
	}
	for _, ps := range p.PStates {
		if ps.Speed <= 0 || ps.PowerScale <= 0 {
			return fmt.Errorf("power: profile %q: invalid P-state %q", p.Name, ps.Name)
		}
	}
	return nil
}

// CoreWatts reports one core's draw in the given C-state; busy selects
// between executing and idling in C0. pstate scales the active draw.
func (p *ServerProfile) CoreWatts(c CState, busy bool, ps PState) float64 {
	switch c {
	case C0:
		if busy {
			return p.CoreActive * ps.PowerScale
		}
		return p.CoreIdle
	case C1:
		return p.CoreC1
	case C3:
		return p.CoreC3
	case C6:
		return p.CoreC6
	}
	return p.CoreIdle
}

// SocketCount reports the number of processor packages (at least 1).
func (p *ServerProfile) SocketCount() int {
	if p.Sockets <= 0 {
		return 1
	}
	return p.Sockets
}

// CoresPerSocket reports the per-package core count.
func (p *ServerProfile) CoresPerSocket() int { return p.Cores / p.SocketCount() }

// XeonE5_2680 returns the 10-core Xeon E5-2680-class profile used in the
// paper's validation (Sec. V-A) and case studies (Sec. IV-C). CPU package
// figures are calibrated so RAPL-style package power spans roughly
// 5–30 W between deep idle and full load, matching Fig. 12's range; the
// full-server figures (with DRAM and platform) give the ~100 W idle /
// ~200 W busy server the energy case studies assume.
func XeonE5_2680() *ServerProfile {
	return &ServerProfile{
		Name:  "intel-xeon-e5-2680",
		Cores: 10,

		CoreActive: 2.2,
		CoreIdle:   1.1,
		CoreC1:     0.7,
		CoreC3:     0.3,
		CoreC6:     0.05,

		PkgPC0: 5.0,
		PkgPC6: 0.8,

		DRAMActive:      6.0,
		DRAMIdle:        3.0,
		DRAMSelfRefresh: 0.6,

		PlatformS0: 65.0,
		PlatformS3: 2.5,

		WakeC1:  Transition{Latency: 1 * simtime.Microsecond, Watts: 0.7},
		WakeC3:  Transition{Latency: 50 * simtime.Microsecond, Watts: 1.1},
		WakeC6:  Transition{Latency: 100 * simtime.Microsecond, Watts: 1.5},
		WakePC6: Transition{Latency: 600 * simtime.Microsecond, Watts: 4.0},
		WakeS3:  Transition{Latency: 1500 * simtime.Millisecond, Watts: 120.0},

		SleepEntry: Transition{Latency: 3 * simtime.Second, Watts: 95.0},

		PStates: DefaultPStates(),
	}
}

// FourCoreServer returns the generic 4-core server used by the Sec. IV-A
// provisioning and Sec. IV-B delay-timer farms (50 four-core servers).
// Its suspend resume is fast (400 ms), modeling the "highly responsive
// idle state" the delay-timer study relies on; the flap-vs-idle-burn
// balance then puts the optimal τ at sub-second scale for short-service
// workloads, as in the paper's Fig. 5.
func FourCoreServer() *ServerProfile {
	p := XeonE5_2680()
	p.Name = "generic-4core"
	p.Cores = 4
	p.CoreActive = 6.0
	p.CoreIdle = 3.0
	p.CoreC1 = 2.0
	p.CoreC3 = 0.9
	p.CoreC6 = 0.15
	p.PkgPC0 = 12.0
	p.PkgPC6 = 2.0
	p.WakeS3 = Transition{Latency: 400 * simtime.Millisecond, Watts: 110.0}
	p.SleepEntry = Transition{Latency: 2500 * simtime.Millisecond, Watts: 105.0}
	return p
}

// DualSocketXeon returns a two-socket, 20-core variant of the Xeon
// profile (Table I's "multiple sockets" capability): each package has
// its own PC0/PC6 state and can sleep independently.
func DualSocketXeon() *ServerProfile {
	p := XeonE5_2680()
	p.Name = "intel-xeon-e5-2680-2s"
	p.Cores = 20
	p.Sockets = 2
	return p
}

// SwitchProfile carries power figures for one switch model.
type SwitchProfile struct {
	Name string

	// ChassisWatts is the always-on base draw of the chassis (fans,
	// management CPU, fabric) while the switch is powered.
	ChassisWatts float64

	LineCards        int
	PortsPerLineCard int

	// Line-card draw by state, excluding ports.
	LineCardActiveW float64
	LineCardSleepW  float64

	// Per-port draw by state.
	PortActiveW float64
	PortLPIW    float64

	// Wake transitions.
	PortWake     Transition // LPI -> Active (IEEE 802.3az order of µs)
	LineCardWake Transition // Sleep -> Active

	// PortRateBps is every port's line rate: a link with a switch end
	// runs no faster.
	PortRateBps float64
}

// Validate checks structural sanity.
func (p *SwitchProfile) Validate() error {
	if p.LineCards <= 0 || p.PortsPerLineCard <= 0 {
		return fmt.Errorf("power: switch profile %q: needs line cards and ports", p.Name)
	}
	if p.ChassisWatts < 0 || p.PortActiveW < 0 || p.PortLPIW < 0 {
		return fmt.Errorf("power: switch profile %q: negative draw", p.Name)
	}
	if p.PortLPIW > p.PortActiveW {
		return fmt.Errorf("power: switch profile %q: LPI draws more than active", p.Name)
	}
	if !(p.PortRateBps > 0) {
		return fmt.Errorf("power: switch profile %q: port rate %g not positive", p.Name, p.PortRateBps)
	}
	return nil
}

// Ports reports the total port count.
func (p *SwitchProfile) Ports() int { return p.LineCards * p.PortsPerLineCard }

// Cisco2960_24 returns the Cisco WS-C2960-24-S profile from the paper's
// switch validation (Sec. V-B): 24 ports on one line card, measured base
// power 14.7 W and 0.23 W per active port.
func Cisco2960_24() *SwitchProfile {
	return &SwitchProfile{
		Name:             "cisco-ws-c2960-24-s",
		ChassisWatts:     12.7,
		LineCards:        1,
		PortsPerLineCard: 24,
		LineCardActiveW:  2.0, // chassis 12.7 + line card 2.0 = paper's 14.7 W base
		LineCardSleepW:   0.4,
		PortActiveW:      0.23,
		PortLPIW:         0.03,
		PortWake:         Transition{Latency: 5 * simtime.Microsecond, Watts: 0.23},
		LineCardWake:     Transition{Latency: 2 * simtime.Millisecond, Watts: 2.0},
		PortRateBps:      1e9,
	}
}

// DataCenter10G returns a generic 10 GbE top-of-rack/aggregation switch
// profile for the fat-tree case study (Sec. IV-D), derived the way the
// paper describes (architectural breakdown in the PopCorns study [44]).
func DataCenter10G(ports int) *SwitchProfile {
	if ports <= 0 {
		ports = 48
	}
	return &SwitchProfile{
		Name:             "generic-10g-tor",
		ChassisWatts:     25.0,
		LineCards:        1,
		PortsPerLineCard: ports,
		LineCardActiveW:  60.0,
		LineCardSleepW:   5.0,
		PortActiveW:      1.2,
		PortLPIW:         0.12,
		PortWake:         Transition{Latency: 5 * simtime.Microsecond, Watts: 1.2},
		LineCardWake:     Transition{Latency: 2 * simtime.Millisecond, Watts: 30.0},
		PortRateBps:      10e9,
	}
}
