package network

import (
	"holdcsim/internal/engine"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
	"holdcsim/internal/topology"
)

// Switch residency labels. SwitchStateDown is the fault model's
// addition: a dead switch draws nothing until revived.
const (
	SwitchStateActive = "Active"
	SwitchStateWake   = "Wake-up"
	SwitchStateSleep  = "Sleep"
	SwitchStateDown   = "Down"
)

// Switch models one switching element: chassis + line cards + ports,
// with automatic line-card sleep and per-port LPI (paper Sec. III-B,
// Fig. 3).
type Switch struct {
	net  *Network
	node topology.NodeID
	prof *power.SwitchProfile

	ports     []*Port
	allocated int // ports handed out to links

	sleeping  bool
	waking    bool
	failed    bool // dead (fault model): 0 W, no traffic, no transitions
	wakeUntil simtime.Time
	// ev holds the end of a wake-up while waking, and otherwise the idle
	// countdown, if armed: the two never overlap (a wake starts only
	// from sleep, which the countdown's expiry entered, and nothing arms
	// the countdown while the switch sleeps or wakes), so Fire tells
	// them apart by waking.
	ev engine.Event

	meter     stats.EnergyMeter
	residency stats.Residency

	wakeCount int64
}

func newSwitch(n *Network, node topology.NodeID, prof *power.SwitchProfile) *Switch {
	sw := &Switch{
		net:  n,
		node: node,
		prof: prof,
	}
	for range prof.Ports() {
		sw.ports = append(sw.ports, &Port{sw: sw, state: power.PortActive})
	}
	return sw
}

// allocPort hands the next unused port to a link.
func (s *Switch) allocPort(l *linkState) *Port {
	p := s.ports[s.allocated]
	s.allocated++
	p.link = l
	return p
}

// Node reports the topology node this switch occupies.
func (s *Switch) Node() topology.NodeID { return s.node }

// Failed reports whether the switch is dead (fault model).
func (s *Switch) Failed() bool { return s.failed }

// WakeCount reports how many sleep->active transitions occurred.
func (s *Switch) WakeCount() int64 { return s.wakeCount }

// PortStates snapshots all port states (validation logging, Sec. V-B).
func (s *Switch) PortStates() []power.PortState {
	out := make([]power.PortState, len(s.ports))
	for i, p := range s.ports {
		out[i] = p.state
	}
	return out
}

// wake begins (or continues) waking a sleeping switch, returning the
// remaining time until it is usable. Awake switches return 0.
func (s *Switch) wake() simtime.Time {
	now := s.net.eng.Now()
	if s.failed {
		return 0 // dead switches don't wake; traffic drops at their links
	}
	if s.waking {
		return s.wakeUntil - now
	}
	if !s.sleeping {
		return 0
	}
	s.sleeping = false
	s.waking = true
	s.wakeCount++
	s.net.cover.Hit(modelcov.SwitchWake)
	lat := s.prof.LineCardWake.Latency
	s.wakeUntil = now + lat
	s.recompute()
	s.net.eng.AfterIn(&s.ev, lat, s)
	return lat
}

// Fire implements engine.Handler for the switch's event: the end of its
// wake-up, or the expiry of its idle countdown.
func (s *Switch) Fire() {
	if s.waking {
		s.waking = false
		s.powerUp()
		return
	}
	s.enterSleep()
}

// powerUp returns connected ports to Active and rearms the idle
// timers: the end of a wake-up, or a revival. Unconnected ports stay
// Off.
func (s *Switch) powerUp() {
	for _, p := range s.ports {
		if p.link != nil {
			p.state = power.PortActive
			p.link.armLPI()
		}
	}
	s.recompute()
	s.maybeSleepArm()
}

// powerDown puts every port Off: sleep, or death. A link's shared LPI
// timer is left running for the partner port; a fire against an Off
// port is a no-op (enterLPI skips non-Active ports).
func (s *Switch) powerDown() {
	for _, p := range s.ports {
		p.state = power.PortOff
	}
	s.recompute()
}

// enterSleep puts line cards to sleep and ports off, if still idle.
func (s *Switch) enterSleep() {
	if s.failed || s.sleeping || s.waking || !s.idle() {
		return
	}
	s.sleeping = true
	s.net.cover.Hit(modelcov.SwitchSleep)
	s.powerDown()
}

// idle reports whether no port has users or queued packets.
func (s *Switch) idle() bool {
	for _, p := range s.ports {
		if p.users > 0 {
			return false
		}
		if p.link != nil {
			if p.link.egressAB.busy() || p.link.egressBA.busy() {
				return false
			}
		}
	}
	return true
}

// maybeSleepArm (re)arms the sleep timer when the switch is idle and
// sleep is enabled.
func (s *Switch) maybeSleepArm() {
	if s.net.cfg.SwitchSleepIdle < 0 || s.sleeping || s.waking || s.failed {
		return
	}
	if s.idle() {
		s.net.eng.AfterIn(&s.ev, s.net.cfg.SwitchSleepIdle, s)
	}
}

// recompute re-derives the switch draw from chassis, line-card and port
// states.
func (s *Switch) recompute() {
	now := s.net.eng.Now()
	w := s.prof.ChassisWatts
	label := SwitchStateActive
	switch {
	case s.failed:
		w = 0
		label = SwitchStateDown
	case s.waking:
		w += float64(s.prof.LineCards) * s.prof.LineCardWake.Watts
		label = SwitchStateWake
	case s.sleeping:
		w += float64(s.prof.LineCards) * s.prof.LineCardSleepW
		label = SwitchStateSleep
	default:
		w = s.activeWatts()
	}
	s.meter.SetPower(now, w)
	s.residency.SetState(now, label)
}

// activeWatts sums the draw of an awake switch, whose line cards are
// all Active (they sleep, wake and die with the switch).
func (s *Switch) activeWatts() float64 {
	w := s.prof.ChassisWatts
	for range s.prof.LineCards {
		w += s.prof.LineCardActiveW
	}
	for _, p := range s.ports {
		switch p.state {
		case power.PortActive:
			w += s.prof.PortActiveW
		case power.PortLPI:
			w += s.prof.PortLPIW
		}
	}
	return w
}

// Port is one switch port: its state machine is Active <-> LPI (idle
// threshold / traffic) and Off while the line card sleeps. Every port
// runs at the profile's PortRateBps.
type Port struct {
	sw   *Switch
	link *linkState

	state power.PortState
	users int
}

// addUser registers one traffic unit (flow or in-flight packet),
// reports the wake penalty if the port was in LPI. Callers stop the
// link's shared LPI timer once at the link level before touching either
// port (markActive, maybeSend).
func (p *Port) addUser() simtime.Time {
	p.users++
	var penalty simtime.Time
	if p.state == power.PortLPI {
		penalty = p.sw.prof.PortWake.Latency
		p.sw.net.cover.Hit(modelcov.PortLPIWake)
	}
	if p.state != power.PortActive {
		p.state = power.PortActive
		p.sw.recompute()
	}
	return penalty
}

// removeUser releases one traffic unit; markIdle starts the link's LPI
// countdown when the port drains.
func (p *Port) removeUser() {
	if p.users <= 0 {
		panic("network: port user underflow")
	}
	p.users--
	if p.users == 0 {
		p.sw.maybeSleepArm()
	}
}

// enterLPI moves the idle port into Low Power Idle.
func (p *Port) enterLPI() {
	if p.users > 0 || p.state != power.PortActive {
		return
	}
	p.state = power.PortLPI
	p.sw.net.cover.Hit(modelcov.PortLPIEnter)
	p.sw.recompute()
}
